import dataclasses
import os
import signal
import threading

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from pcfdr import _fork, simulation
from pcfdr.combine import SIMES
from pcfdr.procedures import ThresholdCollection, WeightScheme
from pcfdr.replicability import SelectionRule
from pcfdr.simulation import (
    McEstimate,
    SimulationScenario,
    dcc_probe,
    gen_meta_matrix,
    mc_fdr_pc,
    mc_replicability_error,
)


def null_scenario(m=20, n=4, **kw):
    return SimulationScenario(m=m, n=n, true_k=(0,) * m, **kw)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationScenario(m=2, n=3, true_k=(0,))  # length mismatch
        with pytest.raises(ValueError):
            SimulationScenario(m=1, n=3, true_k=(4,))  # k > n
        with pytest.raises(ValueError, match="true_k must be a 1-d integer array"):
            SimulationScenario(m=2, n=3, true_k=("3", True))  # not read as (3, 1)
        with pytest.raises(ValueError):
            SimulationScenario(m=1, n=3, true_k=(1,), rho=1.5)
        with pytest.raises(ValueError):
            SimulationScenario(m=1, n=3, true_k=(1,), dependence="copula")
        for seed in (-1, 2**64, 2**64 + 1):  # not read as seed mod 2**64
            with pytest.raises(ValueError, match=f"seed: {seed} outside"):
                SimulationScenario(m=1, n=3, true_k=(1,), seed=seed)
        for name in ("mu", "rho"):
            with pytest.raises(ValueError, match=f"{name}: int too large"):
                SimulationScenario(m=1, n=3, true_k=(1,), **{name: 10**400})
        for kw, message in (({"reps": -1}, "reps must be nonnegative"),
                            ({"mu": -1.0}, "mu must be nonnegative"),
                            ({"dependence": "block_arbitrary", "block_size": 1},
                             "block_size must be at least 2")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                SimulationScenario(m=1, n=3, true_k=(1,), **kw)

    @pytest.mark.parametrize("m, n", [(0, 3), (1, 0)])
    def test_sizes_are_checked_before_true_k(self, m, n):
        # An empty JSON list reads as a float array, which true_k rejects.
        with pytest.raises(ValueError, match="^m and n must be positive$"):
            SimulationScenario(m=m, n=n, true_k=[])

    def test_dependence_must_be_a_string(self):
        with pytest.raises(ValueError, match="^dependence: must be a string, not 5$"):
            SimulationScenario(m=1, n=3, true_k=(1,), dependence=5)

    def test_largest_seed_keys_its_own_stream(self):
        s = null_scenario(m=3, n=2, seed=2**64 - 1)
        key = np.array([2**64 - 1, 7], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((3, 2))
        assert np.array_equal(gen_meta_matrix(s, 7), ndtr(-z))

    def test_true_null_features(self):
        s = SimulationScenario(m=3, n=4, true_k=(0, 2, 4))
        assert s.true_null_features(2) == {0}
        assert s.true_null_features(3) == {0, 1}

    def test_dict_roundtrip(self):
        s = SimulationScenario(m=2, n=3, true_k=(1, 0), mu=2.0, rho=0.3,
                               dependence="equicorrelated_prds", reps=5, seed=9)
        assert SimulationScenario(**dataclasses.asdict(s)) == s


class TestGenMetaMatrix:
    def test_deterministic(self):
        s = null_scenario(seed=123)
        a = gen_meta_matrix(s, 7)
        b = gen_meta_matrix(s, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_meta_matrix(s, 8))

    def test_null_entries_uniform(self):
        s = null_scenario(m=100, n=10, seed=1)
        pooled = np.concatenate([gen_meta_matrix(s, r).ravel() for r in range(100)])
        assert pooled.size == 100_000
        assert kstest(pooled, "uniform").statistic < 0.01

    def test_rho_one_degenerate(self):
        s = null_scenario(m=5, n=3, rho=1.0, dependence="equicorrelated_prds", seed=2)
        mat = gen_meta_matrix(s, 0)
        # all entries within a study identical (no mean shifts here)
        assert np.allclose(mat, mat[0:1, :])

    def test_signal_placement(self):
        s = SimulationScenario(m=2, n=4, true_k=(3, 0), mu=50.0, seed=5)
        mat = gen_meta_matrix(s, 0)
        assert (mat[0, :3] < 1e-10).all()
        assert (mat[0, 3] > 1e-10) and (mat[1] > 1e-10).all()

    def test_block_arbitrary_negative_correlation(self):
        s = null_scenario(m=4, n=2, dependence="block_arbitrary", block_size=4, seed=3)
        draws = np.array([gen_meta_matrix(s, r)[:, 0] for r in range(4000)])
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert off_diag.mean() < -0.2  # target pairwise correlation about -1/3


class TestMcFdrPc:
    def test_no_true_nulls_gives_zero(self):
        s = SimulationScenario(m=4, n=3, true_k=(3, 3, 2, 2), mu=4.0, reps=20, seed=1)
        tc = ThresholdCollection(alpha=0.05, m=4)
        est = mc_fdr_pc(s, 2, SIMES, tc)
        assert est.mean == 0.0

    def test_tiny_alpha_rejects_nothing(self):
        s = null_scenario(m=6, n=3, reps=20, seed=2)
        tc = ThresholdCollection(alpha=1e-12, m=6)
        est = mc_fdr_pc(s, 1, SIMES, tc)
        assert est.mean == 0.0

    def test_u_range_checked(self):
        s = null_scenario(reps=1)
        with pytest.raises(ValueError):
            mc_fdr_pc(s, 9, SIMES, ThresholdCollection(alpha=0.05, m=20))


@pytest.mark.parametrize("u", [0, 4])
@pytest.mark.parametrize("call", [
    lambda s, u: mc_fdr_pc(s, u, SIMES, ThresholdCollection(alpha=0.05, m=s.m)),
    lambda s, u: dcc_probe(s, u, SIMES, [0.1]),
], ids=["mc_fdr_pc", "dcc_probe"])
def test_u_outside_1_to_n_is_rejected_before_any_draw(call, u, monkeypatch):
    # The range is checked before any replicate is drawn, and before
    # dcc_probe looks for a true null to probe.
    monkeypatch.setattr(simulation, "_draw", lambda *a: pytest.fail("a replicate was drawn"))
    with pytest.raises(ValueError, match=rf"^u={u} outside \[1, 3\]$"):
        call(null_scenario(m=5, n=3, reps=4), u)


STEP_UP = SelectionRule("step_up_on_combined", alpha=0.1)


@pytest.mark.parametrize("call, message", [
    (lambda s: mc_fdr_pc(s, 2, SIMES, ThresholdCollection(alpha=0.05, m=199)),
     "expected 199 p-values, got 200"),
    (lambda s: mc_replicability_error(s, STEP_UP, SIMES, WeightScheme.unit(200), q=2),
     r"q=2 outside \(0, 1\]"),
    (lambda s: mc_replicability_error(s, STEP_UP, SIMES, WeightScheme.unit(199), q=0.1),
     "weight scheme sized for a different feature count"),
    (lambda s: mc_replicability_error(s, SelectionRule("step_up_on_column", alpha=0.1, column=9),
                                      SIMES, WeightScheme.unit(200), q=0.1),
     r"column 9 outside \[0, 5\)"),
], ids=["tc-size", "q", "weights-size", "column"])
def test_scorer_arguments_are_checked_before_any_draw(call, message, monkeypatch):
    # The chunk scorer's dry run on an empty stack applies every argument,
    # so a bad one raises the message of the code that applies it with no
    # replicate drawn and no process forked, with replicates or without.
    drawn, draw = [], simulation._draw
    monkeypatch.setattr(simulation, "_draw", lambda *a: drawn.append(a[1:]) or draw(*a))
    monkeypatch.setattr(_fork, "_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
    for reps in (4000, 0):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call(null_scenario(m=200, n=5, reps=reps))
    assert drawn == []


@pytest.mark.parametrize("call", [
    lambda s: [mc_fdr_pc(s, 2, SIMES, ThresholdCollection(alpha=0.05, m=s.m))],
    lambda s: [mc_replicability_error(s, STEP_UP, SIMES, WeightScheme.unit(s.m), q=0.1)],
    lambda s: [est for _, est in dcc_probe(s, 2, SIMES, [0.1, 0.5])],
    lambda s: [est for _, est in dcc_probe(s, 2, SIMES, [0.1],
                                           statistic="selection_volume_minus_row")],
], ids=["mc_fdr_pc", "mc_replicability_error", "dcc_probe", "dcc_probe-selection"])
def test_zero_replicates_draw_and_fork_nothing(call, monkeypatch, recwarn):
    # A scenario of no replicates runs only the dry run: each estimate is
    # of no values, a NaN mean with standard error 0, with no warning.
    monkeypatch.setattr(simulation, "_draw", lambda *a: pytest.fail("a replicate was drawn"))
    monkeypatch.setattr(_fork, "_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
    for est in call(null_scenario(m=200, n=5, reps=0)):
        assert np.isnan(est.mean) and (est.se, est.reps) == (0.0, 0)
    assert not recwarn.list


class TestMcReplicability:
    def test_all_full_signal_gives_zero_error(self):
        s = SimulationScenario(m=5, n=3, true_k=(3,) * 5, mu=3.0, reps=20, seed=4)
        rule = SelectionRule("step_up_on_combined", alpha=0.1)
        est = mc_replicability_error(s, rule, SIMES, WeightScheme.unit(5), q=0.1)
        assert est.mean == 0.0

    def test_estimate_shape(self):
        s = null_scenario(m=8, n=3, reps=30, seed=6)
        rule = SelectionRule("step_up_on_combined", alpha=0.1)
        est = mc_replicability_error(s, rule, SIMES, WeightScheme.unit(8), q=0.1)
        assert isinstance(est, McEstimate)
        assert est.reps == 30
        assert est.se >= 0.0


class TestDccProbe:
    def test_requires_true_null(self):
        s = SimulationScenario(m=2, n=3, true_k=(3, 3), reps=2, seed=1)
        with pytest.raises(ValueError):
            dcc_probe(s, 2, SIMES, [0.1])

    def test_inequality_holds_independent_simes(self):
        s = SimulationScenario(m=10, n=4, true_k=(0,) * 5 + (4,) * 5,
                               mu=3.0, reps=2000, seed=11)
        for c, est in dcc_probe(s, 2, SIMES, [0.1, 0.5]):
            assert est.mean <= c + 3 * est.se

    def test_selection_volume_statistic(self):
        s = SimulationScenario(m=6, n=4, true_k=(0,) * 3 + (4,) * 3,
                               mu=3.0, reps=200, seed=12)
        out = dcc_probe(s, 2, SIMES, [0.2], statistic="selection_volume_minus_row")
        (c, est), = out
        assert est.mean <= c + 3 * est.se

    def test_bad_statistic_and_grid(self):
        s = null_scenario(reps=1)
        with pytest.raises(ValueError):
            dcc_probe(s, 1, SIMES, [0.1], statistic="volume")
        with pytest.raises(ValueError):
            dcc_probe(s, 1, SIMES, [0.0])

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_c_grid_must_be_finite(self, c, monkeypatch):
        # NaN passed the positivity test as a vacuous estimate of 0, and
        # infinity as one against an infinite bound.
        monkeypatch.setattr(simulation, "_draw", lambda *a: pytest.fail("a replicate was drawn"))
        with pytest.raises(ValueError, match="^c grid must be nonempty and positive$"):
            dcc_probe(null_scenario(reps=2), 1, SIMES, [0.1, c])


def test_replicate_order_invariance():
    # estimates depend only on (seed, rep_index), not execution order
    s = null_scenario(m=5, n=3, reps=10, seed=42)
    mats = [gen_meta_matrix(s, r) for r in range(10)]
    again = [gen_meta_matrix(s, r) for r in reversed(range(10))]
    for a, b in zip(mats, reversed(again)):
        assert np.array_equal(a, b)


class TestForkedMap:
    """Replicates split over forked children: a failing child leaves no
    process and raises as one process does; another thread keeps one
    process. The estimates equal the oracle's on 1 to 3 processes in
    test_differential."""

    S = SimulationScenario(m=20, n=3, true_k=(0,) * 10 + (3,) * 10, mu=3.0, reps=50, seed=9)
    TC = ThresholdCollection(alpha=0.2, m=20)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Any work splits over two processes; the list of forks."""
        forks, fork = [], os.fork
        monkeypatch.setattr(_fork, "_cores", lambda: 2)
        monkeypatch.setattr(simulation, "_MIN_DRAWS", 1)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        yield forks
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def serial(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(_fork, "_cores", lambda: 1)
            return mc_fdr_pc(self.S, 2, SIMES, self.TC)

    def test_an_error_in_a_child_raises_as_in_one_process(self, forks, monkeypatch):
        draw = simulation._draw

        def failing(s, r0, r1):
            if r1 == s.reps:  # the last chunk, which a child draws
                raise ValueError("no draw")
            return draw(s, r0, r1)

        monkeypatch.setattr(simulation, "_draw", failing)
        with pytest.raises(ValueError, match="no draw"):
            mc_fdr_pc(self.S, 2, SIMES, self.TC)
        assert len(forks) == 1

    def test_a_child_that_dies_gives_the_serial_estimate(self, forks, monkeypatch):
        expected = self.serial(monkeypatch)
        parent, draw = os.getpid(), simulation._draw

        def dying(s, r0, r1):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return draw(s, r0, r1)

        monkeypatch.setattr(simulation, "_draw", dying)
        assert mc_fdr_pc(self.S, 2, SIMES, self.TC) == expected
        assert len(forks) == 1

    def test_another_thread_keeps_one_process(self, forks, monkeypatch):
        expected = self.serial(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            est = mc_fdr_pc(self.S, 2, SIMES, self.TC)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forks == []
        assert est == expected
