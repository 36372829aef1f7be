import numpy as np
import pytest

from vhd import (
    ca_model,
    ca_process_noise,
    ca_transition_matrix,
    make_state,
    propagate_truth,
)
from vhd.kinematics import (
    AX,
    AY,
    PX,
    PY,
    VX,
    VY,
    accel_measurement_matrix,
    position_measurement_matrix,
)


class TestTransitionMatrix:
    def test_unit_step_block(self):
        F = ca_transition_matrix(1.0)
        expected = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(F[:3, :3], expected)
        np.testing.assert_array_equal(F[3:, 3:], expected)

    def test_position_row_at_dt_0_1(self):
        F = ca_transition_matrix(0.1)
        expected = np.array([1.0, 0.1, 0.5 * 0.1 * 0.1, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(F[PX], expected)

    def test_block_diagonal_axes_do_not_couple(self):
        F = ca_transition_matrix(0.7)
        np.testing.assert_array_equal(F[:3, 3:], np.zeros((3, 3)))
        np.testing.assert_array_equal(F[3:, :3], np.zeros((3, 3)))

    def test_stationary_state_is_fixed_point(self):
        s = make_state(p_x=4.0, p_y=-2.5)
        np.testing.assert_array_equal(ca_transition_matrix(0.3) @ s, s)

    def test_semigroup_property(self):
        Fa, Fb = ca_transition_matrix(0.4), ca_transition_matrix(1.1)
        np.testing.assert_allclose(Fa @ Fb, ca_transition_matrix(1.5), rtol=1e-12)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            ca_transition_matrix(dt)


class TestProcessNoise:
    def test_zero_sigma_gives_zero_matrix(self):
        np.testing.assert_array_equal(ca_process_noise(0.1, 0.0), np.zeros((6, 6)))

    def test_symmetric_psd(self):
        Q = ca_process_noise(0.25, 1.7)
        np.testing.assert_array_equal(Q, Q.T)
        assert np.linalg.eigvalsh(Q).min() >= -1e-12

    def test_quadratic_scaling_in_sigma(self):
        np.testing.assert_array_equal(
            ca_process_noise(0.1, 0.1), 4.0 * ca_process_noise(0.1, 0.05)
        )

    def test_axes_independent(self):
        Q = ca_process_noise(0.5, 2.0)
        np.testing.assert_array_equal(Q[:3, 3:], np.zeros((3, 3)))

    def test_full_rank_for_positive_dt(self):
        # every state component must receive fresh noise each step
        assert np.linalg.matrix_rank(ca_process_noise(0.1, 0.05)) == 6

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ca_process_noise(0.1, -0.01)

    def test_non_positive_dt_rejected(self):
        with pytest.raises(ValueError):
            ca_process_noise(0.0, 0.1)


class TestMeasurementMatrices:
    def test_position_selector(self):
        H = position_measurement_matrix()
        s = make_state(p_x=1.0, v_x=2.0, a_x=3.0, p_y=4.0, v_y=5.0, a_y=6.0)
        np.testing.assert_array_equal(H @ s, [1.0, 4.0])

    def test_acceleration_selector(self):
        H = accel_measurement_matrix()
        s = make_state(p_x=1.0, v_x=2.0, a_x=3.0, p_y=4.0, v_y=5.0, a_y=6.0)
        np.testing.assert_array_equal(H @ s, [3.0, 6.0])


class TestStateHelpers:
    def test_component_layout(self):
        s = make_state(p_x=1.0, v_x=2.0, a_x=3.0, p_y=4.0, v_y=5.0, a_y=6.0)
        np.testing.assert_array_equal(s[[PX, PY]], [1.0, 4.0])
        np.testing.assert_array_equal(s[[VX, VY]], [2.0, 5.0])
        np.testing.assert_array_equal(s[[AX, AY]], [3.0, 6.0])
        assert (s[PX], s[VX], s[AX], s[PY], s[VY], s[AY]) == (1, 2, 3, 4, 5, 6)


class TestTruthPropagation:
    def test_pure_drift_from_rest(self):
        model = ca_model(1.0, 0.0)
        s = propagate_truth(np.zeros(6), model, (1.0, 0.0))
        np.testing.assert_array_equal(s, make_state(p_x=1.0))

    def test_zero_current_equals_model_step(self):
        model = ca_model(0.1, 0.0)
        s = make_state(p_x=1.0, v_x=2.0, a_x=0.3, p_y=-1.0, v_y=0.5, a_y=-0.2)
        np.testing.assert_array_equal(
            propagate_truth(s, model, (0.0, 0.0)), model.F @ s
        )

    def test_ca_step_and_drift_superpose(self):
        model = ca_model(1.0, 0.0)
        s = propagate_truth(make_state(v_x=2.0), model, (1.0, 0.0))
        assert s[PX] == pytest.approx(3.0)
        assert s[PY] == 0.0

    def test_current_leaves_velocity_and_acceleration_untouched(self):
        model = ca_model(0.5, 0.0)
        s = make_state(v_x=1.0, a_x=0.1, v_y=-2.0, a_y=0.2)
        with_current = propagate_truth(s, model, (0.7, -0.3))
        without = propagate_truth(s, model, (0.0, 0.0))
        np.testing.assert_array_equal(with_current[[VX, AX, VY, AY]], without[[VX, AX, VY, AY]])

    def test_linear_drift_accumulates_as_k_dt_c(self):
        model = ca_model(0.1, 0.0)
        d = (1.0, -0.5)
        s = np.zeros(6)
        for k in range(1, 401):
            s = propagate_truth(s, model, d)
            np.testing.assert_allclose(
                s[[PX, PY]], [k * 0.1 * d[0], k * 0.1 * d[1]], rtol=1e-12
            )


class TestCaModel:
    def test_a_model_equals_itself_and_hashes(self):
        # Its fields are arrays, so models compare by identity, as every
        # other record of arrays does, rather than raise on ==.
        model, other = ca_model(0.1, 5.0), ca_model(0.1, 5.0)
        assert model == model and model != other
        assert hash(model) == hash(model)
        assert {model: 1}[model] == 1
