import ast
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from seqmeas import (
    Coupling,
    InvalidParameter,
    JointSetup,
    b_probabilities,
    born_probability,
    decompose,
    entangled_state,
    joint_distribution,
    make_direction,
    make_state,
    meter_probabilities,
    post_measurement_density,
)
from seqmeas import estimator_weights, expectation, oracle
from seqmeas.coupling import GAMMA_MIN, JOINT_CELLS, b_law, meter_law
from seqmeas.qubit import a_direction
from seqmeas.verify import ORACLE_TOL, random_scenarios, stacked_setup


def row_setups(scenarios):
    """One setup per row of :func:`random_scenarios`, built through make_state and make_direction."""
    return [JointSetup(make_state(alpha, phi), make_direction(theta, varphi), Coupling(gamma))
            for alpha, phi, theta, varphi, gamma in scenarios.tolist()]


def ulps_off(value, reference):
    """How many units in the last place of ``reference`` the float ``value`` is from it."""
    return abs(Decimal(value) - reference) / Decimal(math.ulp(float(reference)))


def solver_directions():
    """(theta, varphi) rows: 2000 random ones, plus both poles, the equator and a
    direction 1e-12 from each pole at four azimuths, so both pivot branches of
    the oracle's 2x2 solve and its b = 0 poles are reached."""
    edges = [(theta, varphi) for theta in (0.0, math.pi / 2, math.pi, 1e-12, math.pi - 1e-12)
             for varphi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    return np.concatenate([random_scenarios(2000, seed=89)[:, 2:4], edges])


def cell(law, m, b):
    """Probability of the joint outcome (m, b)."""
    return law[JOINT_CELLS.index((m, b))]


class TestCoupling:
    def test_derived_fields(self):
        c = Coupling(math.sqrt(0.8))
        assert c.kappa == pytest.approx(0.6, abs=1e-12)
        assert c.gamma_bar**2 == pytest.approx(0.2, abs=1e-12)
        assert c.deco == pytest.approx(0.8, abs=1e-12)

    def test_identities(self):
        for gamma in np.linspace(GAMMA_MIN, 1.0, 101):
            c = Coupling(gamma)
            assert c.gamma**2 + c.gamma_bar**2 == pytest.approx(1.0, abs=1e-12)
            assert c.kappa**2 + c.deco**2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= c.kappa <= 1.0 and 0.0 <= c.deco <= 1.0

    def test_endpoints_admitted(self):
        assert Coupling(GAMMA_MIN).kappa == pytest.approx(0.0, abs=1e-12)
        assert Coupling(1.0).deco == 0.0

    @pytest.mark.parametrize("gamma", [0.5, 0.7, 1.2, -0.9, float("nan")])
    def test_out_of_domain_rejected(self, gamma):
        with pytest.raises(InvalidParameter):
            Coupling(gamma)

    @pytest.mark.parametrize("gamma, message", [
        (0.5, "gamma must lie in [1/sqrt(2), 1], got 0.5"),
        (1.0 + 2e-12, "gamma must lie in [1/sqrt(2), 1], got 1.000000000002"),
        (float("nan"), "gamma must be finite, got nan"),
        (-float("inf"), "gamma must be finite, got -inf"),
    ])
    def test_a_scalar_refusal_names_the_value(self, gamma, message):
        with pytest.raises(InvalidParameter) as refused:
            Coupling(gamma)
        assert str(refused.value) == message

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "gamma must be finite, got nan"),
        (2.0, "gamma must lie in [1/sqrt(2), 1], got 2.0"),
    ])
    @pytest.mark.parametrize("at", [0, 50_000, 100_000])
    def test_a_bad_entry_in_a_stack_is_named_alone(self, bad, message, at):
        # the 10^5 good amplitudes are not printed
        with pytest.raises(InvalidParameter) as refused:
            Coupling(np.insert(np.full(100_000, 0.8), at, bad))
        assert str(refused.value) == message
        assert len(message) < 100

    def test_the_first_of_several_bad_entries_is_named(self):
        with pytest.raises(InvalidParameter, match=r"got 0\.5$"):
            Coupling([0.8, 0.5, 2.0, 0.7])
        with pytest.raises(InvalidParameter, match="got inf$"):
            Coupling([0.8, 2.0, np.inf, np.nan])

    def test_from_kappa(self):
        assert Coupling.from_kappa(0.6).gamma == pytest.approx(math.sqrt(0.8), abs=1e-12)
        assert Coupling.from_kappa(0.0).gamma == pytest.approx(GAMMA_MIN, abs=1e-12)
        with pytest.raises(InvalidParameter):
            Coupling.from_kappa(1.5)

    def test_from_kappa_endpoints_are_exact(self):
        # kappa = 0 is gamma = 1/sqrt(2) itself, not an ulp above it, and kappa = 1 is deco = 0
        weakest = Coupling.from_kappa(0.0)
        assert weakest.gamma == GAMMA_MIN
        assert weakest.kappa == 0.0
        assert Coupling.from_kappa(1.0).deco == 0.0

    def test_from_kappa_matches_50_digit_references(self):
        # kappa is kept as given; 2 gamma**2 - 1 would print 1e-8 as 9.99999972e-09, 3e-16 as 0.0
        with localcontext() as digits50:
            digits50.prec = 50
            for kappa in [*np.geomspace(1e-15, 1.0, 800).tolist(), 3e-16, 1e-8]:
                c, k = Coupling.from_kappa(kappa), Decimal(kappa)
                assert c.kappa == kappa
                assert ulps_off(c.deco, ((1 - k) * (1 + k)).sqrt()) <= 2
                assert ulps_off(c.gamma, ((1 + k) / 2).sqrt()) <= 3
                assert ulps_off(c.gamma_bar, ((1 - k) / 2).sqrt()) <= 2

    def test_deco_near_gamma_one_matches_50_digit_references(self):
        # 1 - gamma**2 cancels there: at gamma = 0.9999999990152839 deco would print 8.87565698e-05
        with localcontext() as digits50:
            digits50.prec = 50
            for gamma in [*(1.0 - np.geomspace(0.1, 1e-15, 800)).tolist(), 0.9999999990152839]:
                c, g = Coupling(gamma), Decimal(gamma)
                assert ulps_off(c.deco, 2 * g * (1 - g * g).sqrt()) <= 2
                assert ulps_off(c.gamma_bar, (1 - g * g).sqrt()) <= 2

    @pytest.mark.parametrize("make, values", [
        (Coupling, np.linspace(GAMMA_MIN, 1.0, 1001)),
        (Coupling, 1.0 - np.geomspace(1e-1, 1e-16, 1000)),
        (Coupling.from_kappa, np.geomspace(1e-16, 1.0, 1000)),
        (Coupling.from_kappa, np.linspace(0.0, 1.0, 1001)),
    ])
    def test_kappa_and_deco_are_a_unit_vector_to_a_few_ulp(self, make, values):
        stacked = make(values)
        assert np.abs(stacked.kappa**2 + stacked.deco**2 - 1.0).max() <= 2 * np.finfo(float).eps
        for i in range(0, len(values), 37):
            one = make(values[i].item())
            assert abs(one.kappa**2 + one.deco**2 - 1.0) <= 2 * np.finfo(float).eps
            assert (one.kappa, one.deco) == (stacked.kappa[i], stacked.deco[i])

    @pytest.mark.parametrize("kappa, message", [
        (2.0, "kappa must lie in [0, 1], got 2.0"),
        (-0.5, "kappa must lie in [0, 1], got -0.5"),
        (float("nan"), "kappa must be finite, got nan"),
    ])
    def test_a_scalar_kappa_refusal_names_the_value(self, kappa, message):
        with pytest.raises(InvalidParameter) as refused:
            Coupling.from_kappa(kappa)
        assert str(refused.value) == message

    def test_from_kappa_takes_a_stack(self):
        # edges and entries within the 1e-12 slack, then uniform strengths
        kappas = np.concatenate([[0.0, 1.0, -1e-13, 1.0 + 1e-13, -0.0, 5e-324],
                                 np.random.default_rng(7).random(100_000)])
        stacked = Coupling.from_kappa(kappas)
        # 10^5 one-entry calls take seconds, so every 97th entry stands for the rest
        for i in [*range(6), *range(6, len(kappas), 97), len(kappas) - 1]:
            one = Coupling.from_kappa(kappas[i])
            assert [getattr(stacked, name)[i] for name in ("gamma", "gamma_bar", "kappa", "deco")] \
                == [one.gamma, one.gamma_bar, one.kappa, one.deco]

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "kappa must be finite, got nan"),
        (1.5, "kappa must lie in [0, 1], got 1.5"),
    ])
    @pytest.mark.parametrize("at", [0, 50_000, 100_000])
    def test_a_bad_kappa_in_a_stack_is_named_alone(self, bad, message, at):
        with pytest.raises(InvalidParameter) as refused:
            Coupling.from_kappa(np.insert(np.full(100_000, 0.3), at, bad))
        assert str(refused.value) == message
        assert len(message) < 45


class TestEntangledState:
    def test_eigenstate_example(self):
        setup = JointSetup(make_state(0.0, 0.0), make_direction(0.0, 0.0), Coupling(0.9))
        amps = entangled_state(setup)
        expected = [0.0, math.sqrt(0.19), 0.0, 0.9]
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    def test_zero_strength_branches_identical(self):
        setup = JointSetup(make_state(0.7, 1.1), make_direction(0.3, 0.2), Coupling(GAMMA_MIN))
        amps = entangled_state(setup)
        np.testing.assert_allclose(amps[:2], amps[2:], atol=1e-12)

    def test_projective_on_eigenstate(self):
        setup = JointSetup(make_state(math.pi / 2, 0.0), make_direction(0.0, 0.0), Coupling(1.0))
        np.testing.assert_allclose(entangled_state(setup), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_unit_norm(self):
        amps = entangled_state(stacked_setup(random_scenarios(200, seed=41)))
        assert amps.shape == (4, 200)
        np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=0), 1.0, rtol=0, atol=1e-12)


class TestMeterProbabilities:
    def test_worked_example(self, worked_setup):
        p = meter_probabilities(worked_setup)
        assert p[0] == pytest.approx(0.35, abs=1e-12)
        assert p[1] == pytest.approx(0.65, abs=1e-12)

    def test_zero_strength_is_uniform(self):
        for alpha in np.linspace(0, math.pi, 7):
            setup = JointSetup(make_state(alpha, 0.3), make_direction(1.0, 0.0), Coupling(GAMMA_MIN))
            p = meter_probabilities(setup)
            assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_projective_on_eigenstate(self):
        setup = JointSetup(make_state(math.pi / 2, 0.0), make_direction(0.0, 0.0), Coupling(1.0))
        p = meter_probabilities(setup)
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_equals_branch_norms(self):
        for setup in row_setups(random_scenarios(300, seed=43)):
            amps = entangled_state(setup)
            p = meter_probabilities(setup)
            assert p[0] == pytest.approx(abs(amps[0]) ** 2 + abs(amps[1]) ** 2, abs=1e-12)
            assert p[1] == pytest.approx(abs(amps[2]) ** 2 + abs(amps[3]) ** 2, abs=1e-12)


class TestPostMeasurementDensity:
    def test_worked_example(self):
        setup = JointSetup(make_state(math.pi / 4, 0.0), make_direction(0.0, 0.0), Coupling(math.sqrt(0.8)))
        np.testing.assert_allclose(
            post_measurement_density(setup),
            [[0.5, 0.4], [0.4, 0.5]],
            atol=1e-12,
        )

    def test_no_decoherence_at_zero_strength(self):
        state = make_state(0.9, 2.1)
        setup = JointSetup(state, make_direction(1.0, 0.0), Coupling(GAMMA_MIN))
        np.testing.assert_allclose(
            post_measurement_density(setup),
            np.outer(state.vector(), state.vector().conj()),
            atol=1e-12,
        )

    def test_full_decoherence_at_projective(self):
        state = make_state(0.9, 2.1)
        setup = JointSetup(state, make_direction(1.0, 0.0), Coupling(1.0))
        rho = post_measurement_density(setup)
        assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0
        assert rho[0, 0].real == pytest.approx(math.sin(0.9) ** 2, abs=1e-12)

    def test_monotone_decoherence_in_gamma(self):
        state = make_state(0.6, 0.4)
        direction = make_direction(1.0, 0.0)
        previous = math.inf
        for gamma in np.linspace(GAMMA_MIN, 1.0, 50):
            off = post_measurement_density(JointSetup(state, direction, Coupling(gamma)))
            magnitude = abs(off[0, 1])
            assert magnitude <= previous + 1e-15
            previous = magnitude


class TestBProbabilities:
    def test_worked_example(self, worked_setup):
        p = b_probabilities(worked_setup)
        assert p[0] == pytest.approx(0.8464101615137753, abs=1e-12)
        assert p[1] == pytest.approx(0.1535898384862246, abs=1e-12)

    def test_undisturbed_at_zero_strength(self):
        state, direction = make_state(0.8, 0.5), make_direction(1.2, 0.9)
        p = b_probabilities(JointSetup(state, direction, Coupling(GAMMA_MIN)))
        assert p[0] == pytest.approx(born_probability(state, direction, +1), abs=1e-12)

    def test_znzd_case_is_coupling_invariant(self):
        state = make_state(math.pi / 4, math.pi / 2)
        direction = make_direction(math.pi / 2, 0.0)
        for gamma in np.linspace(GAMMA_MIN, 1.0, 25):
            p = b_probabilities(JointSetup(state, direction, Coupling(gamma)))
            assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_equals_trace_with_projector(self):
        scenarios = random_scenarios(300, seed=47)
        plus = oracle._eigenvectors(scenarios[:, 2], scenarios[:, 3])[:, :, 1]  # eigenvalue +1
        for setup, v in zip(row_setups(scenarios), plus):
            rho = post_measurement_density(setup)
            pi_plus = np.outer(v, v.conj())
            p = b_probabilities(setup)
            assert p[0] == pytest.approx(np.trace(rho @ pi_plus).real, abs=1e-12)


class TestDecompose:
    def test_independent_part(self):
        setup = JointSetup(make_state(math.pi / 6, 0.0), make_direction(math.pi / 3, 0.0), Coupling(math.sqrt(0.8)))
        assert decompose(setup)[0] == pytest.approx(0.375, abs=1e-12)

    def test_diagonal_observable(self):
        setup = JointSetup(make_state(0.7, 0.3), make_direction(0.0, 0.0), Coupling(0.9))
        independent_part, coherent_coefficient = decompose(setup)
        assert independent_part == pytest.approx(math.sin(0.7) ** 2, abs=1e-12)
        assert coherent_coefficient == pytest.approx(0.0, abs=1e-12)

    def test_coherent_coefficient(self):
        setup = JointSetup(make_state(math.pi / 4, 0.0), make_direction(math.pi / 2, 0.0), Coupling(math.sqrt(0.8)))
        assert decompose(setup)[1] == pytest.approx(0.4, abs=1e-12)

    def test_reconstruction_identity(self):
        for setup in row_setups(random_scenarios(300, seed=53)):
            independent_part, coherent_coefficient = decompose(setup)
            deco = setup.coupling.deco
            reconstructed = (1.0 - deco) * independent_part + deco * born_probability(
                setup.state, setup.b_dir, +1
            )
            p_plus = b_probabilities(setup)[0]
            assert p_plus == pytest.approx(reconstructed, abs=1e-12)
            # the coherent coefficient is exactly the gap above the population part
            assert p_plus == pytest.approx(
                independent_part + coherent_coefficient, abs=1e-12
            )


class TestJointDistribution:
    def test_worked_example(self, worked_setup):
        law = joint_distribution(worked_setup)
        assert law[0] == pytest.approx(0.3482050807568877, abs=1e-12)
        assert law[1] == pytest.approx(0.0017949192431123, abs=1e-12)
        assert law[2] == pytest.approx(0.4982050807568877, abs=1e-12)
        assert law[3] == pytest.approx(0.1517949192431123, abs=1e-12)

    def test_zero_strength_factorizes(self):
        state, direction = make_state(0.8, 0.5), make_direction(1.2, 0.9)
        law = joint_distribution(JointSetup(state, direction, Coupling(GAMMA_MIN)))
        for b in (+1, -1):
            expected = 0.5 * born_probability(state, direction, b)
            assert cell(law, +1, b) == pytest.approx(expected, abs=1e-12)
            assert cell(law, -1, b) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_chain(self):
        setup = JointSetup(make_state(math.pi / 2, 0.0), make_direction(0.0, 0.0), Coupling(1.0))
        law = joint_distribution(setup)
        assert law[0] == pytest.approx(1.0, abs=1e-12)
        for cell in law[1:]:
            assert cell == pytest.approx(0.0, abs=1e-12)

    def test_marginals(self, worked_setup):
        for setup in row_setups(random_scenarios(300, seed=59)) + [worked_setup]:
            law = joint_distribution(setup)
            p_m = meter_probabilities(setup)
            p_b = b_probabilities(setup)
            assert meter_law(law)[0] == pytest.approx(p_m[0], abs=1e-12)
            assert meter_law(law)[1] == pytest.approx(p_m[1], abs=1e-12)
            assert b_law(law)[0] == pytest.approx(p_b[0], abs=1e-12)
            assert b_law(law)[1] == pytest.approx(p_b[1], abs=1e-12)


class TestOracleEquivalence:
    def test_model_matches_tensor_simulation(self):
        for setup in row_setups(random_scenarios(1000, seed=61)):
            ref = oracle.simulate(setup)
            p_m = meter_probabilities(setup)
            assert p_m[0] == pytest.approx(ref.meter_probs[0], abs=1e-10)
            assert p_m[1] == pytest.approx(ref.meter_probs[1], abs=1e-10)
            p_b = b_probabilities(setup)
            assert p_b[0] == pytest.approx(ref.b_probs[0], abs=1e-10)
            assert p_b[1] == pytest.approx(ref.b_probs[1], abs=1e-10)
            np.testing.assert_allclose(
                post_measurement_density(setup), ref.density, atol=1e-10
            )
            law = joint_distribution(setup)
            for m in (+1, -1):
                for b in (+1, -1):
                    assert cell(law, m, b) == pytest.approx(ref.joint[(m, b)], abs=1e-10)

    def test_the_2x2_solve_matches_eigh(self):
        theta, varphi = solver_directions().T
        assert (np.cos(theta) < 0).any() and (np.cos(theta) >= 0).any()  # both pivot branches
        n = np.stack([np.sin(theta) * np.cos(varphi), np.sin(theta) * np.sin(varphi), np.cos(theta)],
                     axis=-1)
        h = np.einsum("nk,kij->nij", n, oracle._PAULI)
        vectors = oracle._eigenvectors(theta, varphi)
        residual = h @ vectors - vectors * [-1.0, 1.0]  # H v - lambda v, column by column
        assert np.linalg.norm(residual, axis=1).max() <= 1e-14
        gram = vectors.conj().transpose(0, 2, 1) @ vectors
        assert np.abs(gram - np.eye(2)).max() <= 1e-14
        _, reference = np.linalg.eigh(h)  # ascending eigenvalues, as the oracle's columns
        overlaps = np.abs(np.einsum("nsb,nsb->nb", vectors.conj(), reference))
        assert np.abs(overlaps - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [GAMMA_MIN, 1.0, None])  # None: the drawn couplings
    def test_the_stacked_oracle_matches_the_closed_forms_at_the_solver_directions(self, gamma):
        directions = solver_directions()
        scenarios = random_scenarios(len(directions), seed=97)
        scenarios[:, 2:4] = directions
        if gamma is not None:
            scenarios[:, 4] = gamma
        state, meter_probs, density, b_probs, joint = oracle.simulate_stack(*scenarios.T)
        setup = stacked_setup(scenarios)
        law = joint_distribution(setup)
        for closed, brute in [(entangled_state(setup).T, state),
                              (np.transpose(meter_law(law)), meter_probs),
                              (np.transpose(b_law(law)), b_probs),
                              (post_measurement_density(setup), density), (law.T, joint)]:
            assert np.abs(closed - brute).max() <= ORACLE_TOL

    def test_born_probability_is_the_projector_expectation(self):
        scenarios = random_scenarios(300, seed=83)
        eigvecs = oracle._eigenvectors(scenarios[:, 2], scenarios[:, 3])
        for setup, vectors in zip(row_setups(scenarios), eigvecs):
            psi = setup.state.vector()
            for sign, column in ((+1, 1), (-1, 0)):  # columns in ascending eigenvalue order
                projector = np.outer(vectors[:, column], vectors[:, column].conj())
                assert oracle.born_probability(psi, setup.b_dir, sign) == pytest.approx(
                    np.vdot(psi, projector @ psi).real, abs=1e-12)

    @pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
    def test_a_sign_other_than_plus_or_minus_one_is_refused_by_both_born_rules(self, sign):
        # the oracle's rule used to raise a bare KeyError from its column lookup
        state, direction = make_state(0.4, 0.9), make_direction(1.0, 0.3)
        message = rf"^sign must be \+1 or -1, got {sign!r}$"
        with pytest.raises(InvalidParameter, match=message):
            born_probability(state, direction, sign)
        with pytest.raises(InvalidParameter, match=message):
            oracle.born_probability(state.vector(), direction, sign)

    def test_the_oracle_imports_no_closed_form(self):
        # the oracle shares the scenario's types, the cell order and an error type: no formula
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("seqmeas")):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names if alias.name.startswith("seqmeas"))
        assert imported == {"InvalidParameter", "JOINT_CELLS", "JointSetup", "ObservableDirection",
                            "PureState"}


def uniform_loop(count, seed, gamma_range):
    """The per-scenario draws, made one rng.uniform call at a time."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi),
             rng.uniform(0.0, 2.0 * math.pi), rng.uniform(*gamma_range)) for _ in range(count)]


class TestScenarioStacks:
    @pytest.mark.parametrize("count, seed, gamma_range", [
        (1000, 5, (0.7072, 0.9999)), (300, 0, (0.7072, 0.9999)), (200, 79, (0.715, 0.995)),
        (1, 2**32 + 1, (GAMMA_MIN, 1.0)),
    ])
    def test_draws_equal_the_per_scenario_uniform_calls(self, count, seed, gamma_range):
        loop = uniform_loop(count, seed, gamma_range)
        assert random_scenarios(count, seed, gamma_range).tolist() == [list(row) for row in loop]
        expected = [JointSetup(make_state(a, p), make_direction(t, v), Coupling(g))
                    for a, p, t, v, g in loop]
        assert row_setups(random_scenarios(count, seed, gamma_range)) == expected
        # make_state and make_direction leave the drawn angles as they are, so the
        # stacked setup, which skips them, holds the same scenarios
        stack = stacked_setup(random_scenarios(count, seed, gamma_range))
        columns = (stack.state.alpha, stack.state.phi, stack.b_dir.theta, stack.b_dir.varphi,
                   stack.coupling.gamma)
        assert np.column_stack(columns).tolist() == [
            [s.state.alpha, s.state.phi, s.b_dir.theta, s.b_dir.varphi, s.coupling.gamma]
            for s in expected]

    def test_the_stacked_oracle_equals_the_one_scenario_oracle(self):
        stack = oracle.simulate_stack(*random_scenarios(300, seed=67).T)
        for k, setup in enumerate(row_setups(random_scenarios(300, seed=67))):
            ref = oracle.simulate(setup)
            one = (ref.state, ref.meter_probs, ref.density, ref.b_probs, list(ref.joint.values()))
            for stacked, single in zip(stack, one):
                assert stacked[k].tobytes() == np.asarray(single).tobytes()

    def test_the_stacked_closed_forms_equal_the_one_scenario_ones(self):
        stack = stacked_setup(random_scenarios(300, seed=71))
        law, amplitudes = joint_distribution(stack), entangled_state(stack)
        rho, (w_a, w_b) = post_measurement_density(stack), estimator_weights(stack)
        true_a = expectation(stack.state, a_direction())
        true_b = expectation(stack.state, stack.b_dir)
        for k, setup in enumerate(row_setups(random_scenarios(300, seed=71))):
            one_w_a, one_w_b = estimator_weights(setup)
            for stacked, single in [
                (law[:, k], joint_distribution(setup)), (amplitudes[:, k], entangled_state(setup)),
                (rho[k], post_measurement_density(setup)),
                (w_a[:, k], one_w_a), (w_b[:, k], one_w_b),
                (true_a[k], expectation(setup.state, a_direction())),
                (true_b[k], expectation(setup.state, setup.b_dir)),
            ]:
                assert stacked.tobytes() == np.asarray(single).tobytes()
