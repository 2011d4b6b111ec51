import math

import numpy as np
import pytest

from sortblock import (
    ConfigError,
    NoiseSchedule,
    NonFiniteError,
    Rng,
    SamplerRun,
    SortblockConfig,
    SortblockError,
    ddim_step,
    forward_noise,
    make_run,
    make_schedule,
    run_sortblock,
    sample,
    standard_normal,
    uniform_step_list,
)
from conftest import block_output
from sortblock import cli


def _synthetic_schedule(alphas_bar, sigmas=None):
    ab = np.asarray(alphas_bar, dtype=np.float64)
    T = len(ab)
    return NoiseSchedule(
        total_steps=T,
        betas=np.full(T, 0.1),
        alphas_bar=ab,
        sigmas=np.zeros(T) if sigmas is None else np.asarray(sigmas, dtype=np.float64),
    )


class TestMakeSchedule:
    def test_single_step(self):
        sched = make_schedule(1, 0.1, 0.1)
        assert np.allclose(sched.alphas_bar, [0.9])

    def test_two_step_cumulative_product(self):
        sched = make_schedule(2, 0.1, 0.1)
        assert np.allclose(sched.alphas_bar, [0.9, 0.81])

    def test_default_strictly_decreasing(self):
        sched = make_schedule(1000)
        assert np.all(np.diff(sched.alphas_bar) < 0)
        assert sched.alphas_bar[0] <= 1.0
        assert np.all(sched.alphas_bar > 0) and np.all(sched.alphas_bar <= 1.0)

    def test_invalid_beta_range(self):
        with pytest.raises(ConfigError):
            make_schedule(10, 0.0, 0.1)
        with pytest.raises(ConfigError):
            make_schedule(10, 0.2, 0.1)
        with pytest.raises(ConfigError):
            make_schedule(10, 0.1, 1.0)


class TestForwardNoise:
    def test_noiseless_endpoint(self):
        sched = _synthetic_schedule([1.0])
        z0 = standard_normal(Rng(0), 4, 4)
        eps = standard_normal(Rng(1), 4, 4)
        assert np.array_equal(forward_noise(z0, 0, sched, eps), z0)

    def test_pure_noise_endpoint(self):
        sched = _synthetic_schedule([0.0])
        z0 = standard_normal(Rng(2), 4, 4)
        eps = standard_normal(Rng(3), 4, 4)
        assert np.array_equal(forward_noise(z0, 0, sched, eps), eps)

    def test_direct_evaluation(self):
        sched = _synthetic_schedule([0.25])
        out = forward_noise(
            np.array([[2.0]], dtype=np.float32), 0, sched, np.array([[1.0]], dtype=np.float32)
        )
        assert abs(float(out[0, 0]) - (0.5 * 2.0 + math.sqrt(0.75))) < 1e-6

    def test_variance_property(self):
        # Eq-of-motion variance: with z0 = 0 the output variance is 1 - abar_t
        sched = make_schedule(1000)
        rng = Rng(11)
        for t in (100, 500, 900):
            z0 = np.zeros((64, 64), dtype=np.float32)
            samples = [forward_noise(z0, t, sched, standard_normal(rng, 64, 64)) for _ in range(4)]
            var = float(np.var(np.stack(samples).astype(np.float64)))
            target = 1.0 - float(sched.alphas_bar[t])
            assert abs(var - target) / target < 0.05


class TestDdimStep:
    def test_equal_alpha_fixed_point_exact(self):
        sched = _synthetic_schedule([0.5, 0.5])
        z = standard_normal(Rng(4), 8, 8)
        eps = standard_normal(Rng(5), 8, 8)
        out = ddim_step(z, eps, 1, 0, sched)
        assert np.array_equal(out, z)

    def test_zero_eps_scaling(self):
        sched = _synthetic_schedule([0.9, 0.4])
        z = standard_normal(Rng(6), 8, 8)
        out = ddim_step(z, np.zeros_like(z), 1, 0, sched)
        expected = np.float32(math.sqrt(0.9 / 0.4)) * z
        assert np.allclose(out, expected, rtol=1e-6)

    def test_trajectory_identity_with_true_noise_default_schedule(self):
        # ddim with the exact forward noise lands on forward_noise(z0, t_prev)
        sched = make_schedule(1000)
        z0 = standard_normal(Rng(7), 32, 32)
        eps = standard_normal(Rng(8), 32, 32)
        for t in uniform_step_list(1000, 50):
            z_t = forward_noise(z0, t, sched, eps)
            stepped = ddim_step(z_t, eps, t, 0, sched)
            target = forward_noise(z0, 0, sched, eps)
            rel = np.linalg.norm(stepped - target) / np.linalg.norm(target)
            assert rel < 1e-5

    def test_x0_recovery_near_noiseless_start(self):
        # with abar_0 ~ 1 the reconstruction recovers z0 itself
        sched = make_schedule(1000, 1e-9, 2e-2)
        z0 = standard_normal(Rng(9), 32, 32)
        eps = standard_normal(Rng(10), 32, 32)
        for t in uniform_step_list(1000, 50):
            z_t = forward_noise(z0, t, sched, eps)
            recon = ddim_step(z_t, eps, t, 0, sched)
            rel = np.linalg.norm(recon - z0) / np.linalg.norm(z0)
            assert rel < 1e-4

    def test_sigma_constraint_violation(self):
        sched = _synthetic_schedule([0.99, 0.5], sigmas=[0.5, 0.5])
        z = standard_normal(Rng(11), 4, 4)
        with pytest.raises(ConfigError):
            ddim_step(z, z, 1, 0, sched, noise=z)

    def test_requires_decreasing_t(self):
        sched = _synthetic_schedule([0.9, 0.5])
        z = standard_normal(Rng(12), 4, 4)
        with pytest.raises(ConfigError):
            ddim_step(z, z, 0, 1, sched)


class TestSample:
    def test_bit_identical_repeat_runs(self, default_net, default_sched, default_run_factory):
        run = default_run_factory(3)
        a = sample(default_net, run, default_sched)
        b = sample(default_net, run, default_sched)
        assert a.tobytes() == b.tobytes()

    def test_single_step_schedule(self, default_net, default_sched):
        run = SamplerRun(step_list=(999,), z_init=standard_normal(Rng(0), 64, 64), seed=0)
        before = default_net.eval_count
        out = sample(default_net, run, default_sched)
        assert default_net.eval_count - before == default_net.num_blocks
        assert out.shape == (64, 64) and np.all(np.isfinite(out))

    def test_fifty_step_eval_count(self, default_net, default_sched, default_run_factory):
        run = default_run_factory(4)
        before = default_net.eval_count
        out = sample(default_net, run, default_sched)
        assert default_net.eval_count - before == 50 * default_net.num_blocks
        assert np.all(np.isfinite(out))


class TestStochasticSampling:
    def _noisy_schedule(self):
        sched = make_schedule(1000)
        sigmas = np.zeros(1000)
        sigmas[200:800] = 0.05  # well under sqrt(1 - abar_prev)
        return NoiseSchedule(
            total_steps=1000, betas=sched.betas, alphas_bar=sched.alphas_bar, sigmas=sigmas
        )

    def test_stochastic_step_requires_noise(self):
        sched = self._noisy_schedule()
        z = standard_normal(Rng(0), 8, 8)
        with pytest.raises(ConfigError):
            ddim_step(z, z, 500, 480, sched, noise=None)

    def test_stochastic_sample_deterministic_per_seed(self, default_net):
        sched = self._noisy_schedule()
        run = make_run(sched, 50, 11, (64, 64))
        a = sample(default_net, run, sched)
        b = sample(default_net, run, sched)
        assert a.tobytes() == b.tobytes()
        assert np.all(np.isfinite(a))

    def test_sigma_changes_output(self, default_net, default_sched):
        noisy = self._noisy_schedule()
        run = make_run(default_sched, 50, 12, (64, 64))
        deterministic = sample(default_net, run, default_sched)
        stochastic = sample(default_net, run, noisy)
        assert not np.array_equal(deterministic, stochastic)


class TestStepList:
    def test_uniform_list_properties(self):
        steps = uniform_step_list(1000, 50)
        assert len(steps) == 50
        assert steps[0] == 999
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert steps[-1] >= 1

    def test_step_list_validation(self):
        with pytest.raises(ConfigError):
            SamplerRun(step_list=(10, 20), z_init=np.zeros((2, 2), dtype=np.float32), seed=0)
        with pytest.raises(ConfigError):
            SamplerRun(step_list=(10, 0), z_init=np.zeros((2, 2), dtype=np.float32), seed=0)

    def test_make_run_deterministic(self, default_sched):
        a = make_run(default_sched, 50, 9, (64, 64))
        b = make_run(default_sched, 50, 9, (64, 64))
        assert np.array_equal(a.z_init, b.z_init)
        assert a.step_list == b.step_list


class DivergingNetwork:
    """Synthetic network whose blocks all output zeros, except that the last
    block writes ``value`` into one entry at timestep ``bad_t``."""

    def __init__(self, bad_t, value=np.inf, num_blocks=12):
        self.bad_t = bad_t
        self.value = value
        self.num_blocks = num_blocks
        self.eval_count = 0

    def _compute(self, i, x, t, out=None):
        self.eval_count += 1
        value = np.zeros_like(x)
        if i == self.num_blocks - 1 and t == self.bad_t:
            value[0, 0] = self.value
        return block_output(value, out)

    def forward(self, z, t, hook=None):
        x = z
        for i in range(self.num_blocks):
            compute = lambda out=None, i=i, x=x: self._compute(i, x, t, out)
            x = compute() if hook is None else hook(i, x, compute)
        return x


class TestNonFiniteLatent:
    """A step whose latent holds inf or NaN raises NonFiniteError naming the
    step index and timestep, at that step; a raise, so it holds under -O."""

    @pytest.mark.parametrize("k, value", [(0, np.inf), (7, -np.inf), (49, np.nan)])
    def test_sample_stops_at_the_diverging_step(self, default_sched, default_run_factory, k, value):
        run = default_run_factory(0)
        t = run.step_list[k]
        net = DivergingNetwork(t, value)
        with pytest.raises(NonFiniteError, match=rf"step {k} \(timestep {t} -> ") as info:
            sample(net, run, default_sched)
        assert isinstance(info.value, SortblockError)
        assert net.eval_count == (k + 1) * net.num_blocks

    def test_finite_run_is_unchanged(self, default_sched, default_run_factory):
        run = default_run_factory(0)
        out = sample(DivergingNetwork(bad_t=None), run, default_sched)
        assert np.isfinite(out).all()

    def test_run_sortblock_raises(self, default_sched, default_run_factory, default_window):
        run = default_run_factory(0)
        cfg = SortblockConfig(refresh_interval=5, rho=0.3, window=default_window)
        _, clean = run_sortblock(DivergingNetwork(bad_t=None), run, default_sched, cfg)
        # the last block is computed at a full step, so the inf reaches the latent
        k = max(r.step for r in clean.steps if r.phase == "full")
        t = run.step_list[k]
        with pytest.raises(NonFiniteError, match=rf"step {k} \(timestep {t} -> "):
            run_sortblock(DivergingNetwork(t), run, default_sched, cfg)

    def test_cli_run_exits_1_with_one_error_line(self, monkeypatch, tmp_path, capsys):
        # step 0 lies outside the default window, so every block is computed
        steps = uniform_step_list(1000, 10)
        monkeypatch.setattr(cli, "init_network", lambda cfg: DivergingNetwork(steps[0]))
        for mode in ("baseline", "sortblock"):
            rc = cli.main(["run", "--mode", mode, "--steps", "10", "--out-dir", str(tmp_path / mode)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.splitlines() == [
                f"error: the latent is not finite after step 0 (timestep {steps[0]} -> {steps[1]})"
            ]
