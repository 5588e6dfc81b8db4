import math
from dataclasses import astuple

import numpy as np
import pytest

from seqmeas import (
    Coupling,
    DegenerateDistribution,
    InvalidParameter,
    JointSetup,
    UnboundedVariance,
    b_probabilities,
    born_probability,
    cramer_rao_bound,
    decompose,
    expectation,
    make_direction,
    make_state,
    meter_probabilities,
    precisions,
    tradeoff_curve,
)
from seqmeas.coupling import GAMMA_MIN
from seqmeas.fisher import _binary_information
from seqmeas.qubit import ObservableDirection, PureState, a_direction
from seqmeas.verify import random_scenarios

from test_coupling import row_setups


def fd_fisher(p_of_x, x0, h=1e-5):
    """Central finite-difference Fisher information of a parametrized binary law."""
    total = 0.0
    for p0, p_up, p_dn in zip(p_of_x(x0), p_of_x(x0 + h), p_of_x(x0 - h)):
        dlog = (math.log(p_up) - math.log(p_dn)) / (2.0 * h)
        total += p0 * dlog * dlog
    return total


class TestFisherBinary:
    def test_fair_coin(self):
        fi = _binary_information(0.5, 0.5, 0.5)
        assert fi == pytest.approx(1.0, abs=1e-12)

    def test_scaled_sensitivity(self):
        fi = _binary_information(0.5, 0.5, 0.3)
        assert fi == pytest.approx(0.36, abs=1e-12)

    def test_skewed(self):
        fi = _binary_information(0.25, 0.75, 0.5)
        assert fi == pytest.approx(4 / 3, abs=1e-12)

    @pytest.mark.parametrize("p_plus", [0.0, 1.0])
    def test_boundary_gives_nan(self, p_plus):
        # nan rather than a raise (or a warning): in a stack only the degenerate law is nan
        assert math.isnan(_binary_information(p_plus, 1.0 - p_plus, 0.5))
        fi = _binary_information(np.array([0.25, p_plus]), np.array([0.75, 1.0 - p_plus]), 0.5)
        assert fi[0] == pytest.approx(4 / 3, abs=1e-12) and math.isnan(fi[1])


class TestJointFisher:
    def test_a_joint_balanced(self):
        setup = JointSetup(make_state(math.pi / 4, 0.0), make_direction(1.0, 0.0), Coupling(math.sqrt(0.8)))
        assert precisions(setup).i_A_joint == pytest.approx(0.36, abs=1e-12)

    def test_a_joint_zero_strength(self):
        setup = JointSetup(make_state(0.6, 0.0), make_direction(1.0, 0.0), Coupling(GAMMA_MIN))
        assert precisions(setup).i_A_joint == pytest.approx(0.0, abs=1e-24)

    def test_a_joint_projective_limit(self):
        state = make_state(math.pi / 6, 0.0)
        setup = JointSetup(state, make_direction(1.0, 0.0), Coupling(1.0))
        report = precisions(setup)
        assert report.i_A_joint == pytest.approx(4 / 3, abs=1e-12)
        assert report.i_A_joint == pytest.approx(report.i_A_proj, abs=1e-12)

    def test_b_joint_worked_value(self, worked_setup):
        # deco^2/4 / (p_plus p_minus) = 0.16 / 0.13
        assert precisions(worked_setup).i_B_joint == pytest.approx(0.16 / 0.13, abs=1e-9)

    def test_b_joint_undisturbed_limit(self):
        state, direction = make_state(0.7, 0.4), make_direction(1.3, 0.8)
        setup = JointSetup(state, direction, Coupling(GAMMA_MIN))
        report = precisions(setup)
        assert report.i_B_joint == pytest.approx(report.i_B_proj, abs=1e-12)

    def test_b_joint_projective_kills_information(self):
        setup = JointSetup(make_state(0.7, 0.4), make_direction(1.3, 0.8), Coupling(1.0))
        assert precisions(setup).i_B_joint == 0.0

    def test_closed_forms_from_paper_quantities(self):
        for setup in row_setups(random_scenarios(200, seed=103)):
            p_m = meter_probabilities(setup)
            p_b = b_probabilities(setup)
            if min(p_m[0], p_m[1], p_b[0], p_b[1]) <= 0.0:
                continue
            kappa, deco = setup.coupling.kappa, setup.coupling.deco
            report = precisions(setup)
            assert report.i_A_joint == pytest.approx(
                0.25 * kappa**2 / (p_m[0] * p_m[1]), abs=1e-12
            )
            assert report.i_B_joint == pytest.approx(
                0.25 * deco**2 / (p_b[0] * p_b[1]), abs=1e-12
            )


class TestProjectiveFisher:
    # the projective informations read only the state and the direction, not the coupling
    def report(self, state, direction=make_direction(1.0, 0.0)):
        return precisions(JointSetup(state, direction, Coupling(0.9)))

    def test_balanced_state(self):
        assert self.report(make_state(math.pi / 4, 0.0)).i_A_proj == pytest.approx(1.0, abs=1e-12)

    def test_skewed_state(self):
        report = self.report(make_state(math.pi / 6, 0.0))
        assert report.i_A_proj == pytest.approx(4 / 3, abs=1e-12)

    def test_b_proj_worked_value(self):
        report = self.report(make_state(math.pi / 6, 0.0), make_direction(math.pi / 2, 0.0))
        assert report.i_B_proj == pytest.approx(4.0, abs=1e-9)

    def test_eigenstate_raises(self):
        # one eigenstate, first or last in a stack of states, refuses the whole stack
        for k in (0, 2):
            alphas, phis = np.array([0.6, 0.7, 1.0]), np.zeros(3)
            alphas[k] = math.pi / 2  # |0>, an eigenstate of sigma_z
            with pytest.raises(DegenerateDistribution, match="eigenstate of A"):
                self.report(PureState(alphas, phis))
            thetas = np.array([1.0, 1.2, 2.0])
            alphas[k], thetas[k] = math.pi / 4, math.pi / 2  # the +1 eigenstate of sigma_x
            with pytest.raises(DegenerateDistribution, match="eigenstate of B"):
                self.report(PureState(alphas, phis), ObservableDirection(thetas, phis))


class TestFiniteDifferenceOracle:
    def test_joint_fisher_matches_finite_differences(self):
        checked = 0
        for setup in row_setups(random_scenarios(600, seed=107)):
            p_m = meter_probabilities(setup)
            p_b = b_probabilities(setup)
            margin = 0.02
            if min(p_m[0], p_m[1], p_b[0], p_b[1]) < margin:
                continue
            kappa, deco = setup.coupling.kappa, setup.coupling.deco
            if kappa < 1e-3 or deco < 1e-3:
                continue
            gb2 = setup.coupling.gamma_bar ** 2
            n = decompose(setup)[0]

            def meter_law(x, kappa=kappa, gb2=gb2):
                return (kappa * (1 + x) / 2 + gb2, kappa * (1 - x) / 2 + gb2)

            def b_law(x, deco=deco, n=n):
                return ((1 - deco) * n + deco * (1 + x) / 2,
                        (1 - deco) * (1 - n) + deco * (1 - x) / 2)

            x_a = expectation(setup.state, a_direction())
            x_b = expectation(setup.state, setup.b_dir)
            report = precisions(setup)
            assert report.i_A_joint == pytest.approx(
                fd_fisher(meter_law, x_a), rel=1e-6
            )
            assert report.i_B_joint == pytest.approx(
                fd_fisher(b_law, x_b), rel=1e-6
            )
            checked += 1
        assert checked >= 200


class TestPrecisions:
    def test_projective_endpoint(self):
        setup = JointSetup(make_state(0.6, 0.2), make_direction(1.0, 0.4), Coupling(1.0))
        report = precisions(setup)
        assert report.epsilon == pytest.approx(1.0, abs=1e-12)
        assert report.eta == 0.0

    def test_zero_strength_endpoint(self):
        setup = JointSetup(make_state(0.6, 0.2), make_direction(1.0, 0.4), Coupling(GAMMA_MIN))
        report = precisions(setup)
        assert report.epsilon == pytest.approx(0.0, abs=1e-24)
        assert report.eta == pytest.approx(1.0, abs=1e-12)

    def test_worked_ratios(self, worked_setup):
        report = precisions(worked_setup)
        assert report.epsilon == pytest.approx(27 / 91, abs=1e-9)
        assert report.eta == pytest.approx(4 / 13, abs=1e-9)
        assert report.epsilon == pytest.approx(report.i_A_joint / report.i_A_proj, abs=1e-12)
        assert report.eta == pytest.approx(report.i_B_joint / report.i_B_proj, abs=1e-12)

    def test_ratios_in_unit_interval(self):
        for setup in row_setups(random_scenarios(300, seed=109)):
            p_m = meter_probabilities(setup)
            p_b = b_probabilities(setup)
            pa = born_probability(setup.state, a_direction(), +1)
            pb = born_probability(setup.state, setup.b_dir, +1)
            if min(pa, 1 - pa, pb, 1 - pb, p_m[0], p_m[1], p_b[0], p_b[1]) <= 0.0:
                continue
            report = precisions(setup)
            assert -1e-12 <= report.epsilon <= 1.0 + 1e-12
            assert -1e-12 <= report.eta <= 1.0 + 1e-12

    def test_propagates_degeneracy_with_observable_tag(self):
        setup = JointSetup(make_state(math.pi / 2, 0.0), make_direction(1.0, 0.0), Coupling(0.9))
        with pytest.raises(DegenerateDistribution):
            precisions(setup)

    @pytest.mark.parametrize("alpha, phi, theta, varphi", [
        (0.6, 0.2, 1.0, 0.4), (math.pi / 6, 0.0, math.pi / 3, 0.0), (1.3, 4.0, 2.5, 5.9),
    ])
    def test_stacked_coupling_equals_each_scalar_coupling(self, alpha, phi, theta, varphi):
        state, direction = make_state(alpha, phi), make_direction(theta, varphi)
        gammas = np.linspace(GAMMA_MIN, 1.0, 41)
        stacked = astuple(precisions(JointSetup(state, direction, Coupling(gammas))))
        rows = np.column_stack(np.broadcast_arrays(*stacked))
        for row, gamma in zip(rows, gammas.tolist()):
            report = precisions(JointSetup(state, direction, Coupling(gamma)))
            assert row.tobytes() == np.array(astuple(report)).tobytes()

    @pytest.mark.parametrize("certain", [(1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.5, 0.0)],
                             ids=["both_marginals", "b_marginal"])
    def test_a_law_that_rounds_to_a_certainty_gives_nan(self, monkeypatch, certain):
        import seqmeas.fisher as fisher_mod

        state, direction = make_state(0.6, 0.2), make_direction(1.0, 0.4)
        gammas = np.linspace(0.75, 0.95, 5)
        real = precisions(JointSetup(state, direction, Coupling(gammas)))
        real_joint_distribution = fisher_mod.joint_distribution

        def certain_at_index_2(setup):
            law = real_joint_distribution(setup)
            law[:, 2] = certain
            return law

        monkeypatch.setattr(fisher_mod, "joint_distribution", certain_at_index_2)
        report = precisions(JointSetup(state, direction, Coupling(gammas)))
        for name in ("i_A_joint", "i_B_joint", "epsilon", "eta"):
            values, expected = getattr(report, name), getattr(real, name)
            assert np.isnan(values[2])
            assert np.delete(values, 2).tolist() == np.delete(expected, 2).tolist()
        monkeypatch.setattr(fisher_mod, "joint_distribution", lambda setup: np.array(certain))
        report = precisions(JointSetup(state, direction, Coupling(0.9)))
        assert all(math.isnan(v) for v in (report.i_A_joint, report.i_B_joint,
                                           report.epsilon, report.eta))
        assert (report.i_A_proj, report.i_B_proj) == (real.i_A_proj, real.i_B_proj)

    @pytest.mark.parametrize("gamma", [0.9, np.linspace(0.75, 0.95, 5)], ids=["one", "stack"])
    def test_eigenstates_raise(self, gamma):
        with pytest.raises(DegenerateDistribution, match="eigenstate of A"):
            precisions(JointSetup(make_state(math.pi / 2, 0.0), make_direction(1.0, 0.0),
                                  Coupling(gamma)))
        with pytest.raises(DegenerateDistribution, match="eigenstate of B"):
            precisions(JointSetup(make_state(math.pi / 4, 0.0), make_direction(math.pi / 2, 0.0),
                                  Coupling(gamma)))


class TestCramerRaoBound:
    def test_values(self):
        assert cramer_rao_bound(1.0, 100) == pytest.approx(0.01, abs=1e-15)
        assert cramer_rao_bound(0.36, 10**6) == pytest.approx(1.0 / 360000.0, rel=1e-12)
        assert cramer_rao_bound(4 / 3, 1) == pytest.approx(0.75, abs=1e-15)

    def test_zero_information(self):
        with pytest.raises(UnboundedVariance):
            cramer_rao_bound(0.0, 100)

    def test_bad_trials(self):
        with pytest.raises(InvalidParameter):
            cramer_rao_bound(1.0, 0)


class TestTradeoffCurve:
    def fig_args(self):
        return make_state(math.pi / 6, 0.0), make_direction(math.pi / 3, 0.0)

    def test_endpoint_rows(self):
        state, direction = self.fig_args()
        rows = tradeoff_curve(state, direction, grid=10)
        assert len(rows) == 12
        assert rows.dtype == np.float64 and rows.shape == (12, 4)
        assert tuple(rows[0]) == (GAMMA_MIN, 0.0, 0.0, 1.0)
        assert tuple(rows[-1]) == (1.0, 1.0, 1.0, 0.0)

    def test_strict_monotonicity(self):
        state, direction = self.fig_args()
        _, _, eps, eta = tradeoff_curve(state, direction, grid=100).T
        assert np.isfinite(eps).all()
        assert (np.diff(eps) > 0).all()
        assert (np.diff(eta) < 0).all()

    def test_small_grid(self):
        with pytest.raises(InvalidParameter):
            tradeoff_curve(*self.fig_args(), grid=1)

    def test_projective_informations_computed_once(self, monkeypatch):
        # the denominators depend only on the state: two Born probabilities each
        import seqmeas.fisher as fisher_mod

        calls = []
        real_born_probability = fisher_mod.born_probability

        def counted(*args):
            calls.append(args)
            return real_born_probability(*args)

        monkeypatch.setattr(fisher_mod, "born_probability", counted)
        state, direction = self.fig_args()
        rows = tradeoff_curve(state, direction, grid=50)
        assert len(calls) == 4
        # each row is bit-identical to the single-scenario precisions
        for gamma, _, eps, eta in rows[1:-1].tolist():
            report = precisions(JointSetup(state, direction, Coupling(gamma)))
            assert (eps, eta) == (report.epsilon, report.eta)

    def test_all_rows_come_from_one_kernel_call(self, monkeypatch):
        import seqmeas.fisher as fisher_mod

        calls = []
        real_joint_distribution = fisher_mod.joint_distribution

        def counted(setup):
            calls.append(setup)
            return real_joint_distribution(setup)

        monkeypatch.setattr(fisher_mod, "joint_distribution", counted)
        assert len(tradeoff_curve(*self.fig_args(), grid=50)) == 52
        assert len(calls) == 1
        # the one call carries the whole sweep as a stacked coupling
        assert calls[0].coupling.gamma.shape == (50,)

    def test_znzd_state_rejected(self):
        state = make_state(math.pi / 4, math.pi / 2)
        with pytest.raises(InvalidParameter, match="ZNZD"):
            tradeoff_curve(state, make_direction(math.pi / 2, 0.0), grid=10)

    def test_eigenstate_rejected(self):
        with pytest.raises(DegenerateDistribution):
            tradeoff_curve(make_state(math.pi / 2, 0.0), make_direction(1.0, 0.0), grid=10)
        # eigenstate of the second observable only
        with pytest.raises(DegenerateDistribution, match="eigenstate of B"):
            tradeoff_curve(make_state(math.pi / 4, 0.0), make_direction(math.pi / 2, 0.0), grid=10)

    def test_degenerate_row_marked_invalid(self, monkeypatch):
        # a row-level degeneracy must not abort the sweep
        import seqmeas.fisher as fisher_mod

        state, direction = self.fig_args()
        real_joint_distribution = fisher_mod.joint_distribution

        def flaky(setup):
            cells = real_joint_distribution(setup)
            cells[:, abs(setup.coupling.gamma - 0.85) < 0.01] = [[1.0], [0.0], [0.0], [0.0]]
            return cells

        monkeypatch.setattr(fisher_mod, "joint_distribution", flaky)
        rows = fisher_mod.tradeoff_curve(state, direction, grid=30)
        assert len(rows) == 32
        _, _, eps, eta = rows.T
        invalid = ~np.isfinite(eps)
        assert invalid.any()
        assert np.isnan(eps[invalid]).all() and np.isnan(eta[invalid]).all()
        assert np.isfinite(eps[[0, -1]]).all()
