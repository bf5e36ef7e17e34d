import numpy as np
import pytest

from latentprior import features


@pytest.fixture(scope="module")
def net():
    return features.init_feature_net(17, n_in=48, hidden=32, k=8)


class TestInit:
    def test_deterministic(self):
        a = features.init_feature_net(17, 48)
        b = features.init_feature_net(17, 48)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)

    def test_role_seeds_give_distinct_nets(self):
        a = features.init_feature_net(features.PROXY_SEED, 48)
        b = features.init_feature_net(202, 48)
        assert not np.array_equal(a.w1, b.w1)

    def test_proxy_net_cached(self):
        assert features.proxy_net(48) is features.proxy_net(48)

    def test_dims(self, net):
        assert net.n_in == 48 and net.w2.shape[0] == 8


class TestEmbed:
    def test_single_matches_batch(self, net, rng):
        # matmul rounding varies with the batch shape; agreement is to
        # rounding precision, not bit for bit
        imgs = rng.standard_normal((5, 48))
        batch = features.embed(net, imgs)
        assert batch.shape == (5, 8)
        for i in range(5):
            np.testing.assert_allclose(features.embed(net, imgs[i:i + 1])[0],
                                       batch[i], rtol=1e-12, atol=1e-14)

    def test_hand_forward(self, net, rng):
        x = rng.standard_normal(48)
        h_pre = net.w1 @ x + net.b1
        h = np.where(h_pre >= 0, h_pre, 0.2 * h_pre)
        f_pre = net.w2 @ h + net.b2
        want = np.where(f_pre >= 0, f_pre, 0.2 * f_pre)
        np.testing.assert_allclose(features.embed(net, x[None])[0], want, rtol=1e-15)

    def test_shape_error(self, net):
        with pytest.raises(ValueError):
            features.embed(net, np.zeros((1, 47)))
        with pytest.raises(ValueError):
            features.embed(net, np.zeros(48))  # one image is a batch of one row


class TestVjp:
    def test_matches_finite_differences(self, net, rng):
        x = rng.standard_normal(48)
        if features.min_preactivation_gap(net, x) < 1e-4:
            x = x + 0.01
        cot = rng.standard_normal(8)
        _, pullback = features.embed_vjp(net, x[None])
        grad = pullback(cot[None])[0]
        h = 1e-7
        u = rng.standard_normal(48)
        u /= np.linalg.norm(u)
        f = lambda y: float(features.embed(net, y[None])[0] @ cot)
        fd = (f(x + h * u) - f(x - h * u)) / (2 * h)
        assert float(grad @ u) == pytest.approx(fd, rel=1e-5)

    def test_rows_are_independent(self, net, rng):
        # row i of a batch equals that row alone, as a batch of one
        imgs = rng.standard_normal((4, 48))
        cots = rng.standard_normal((4, 8))
        _, pullback = features.embed_vjp(net, imgs)
        batch = pullback(cots)
        for i in range(4):
            _, row_pullback = features.embed_vjp(net, imgs[i:i + 1])
            np.testing.assert_allclose(
                batch[i], row_pullback(cots[i:i + 1])[0], rtol=1e-12, atol=1e-14)

    def test_returns_the_features_of_its_pass(self, net, rng):
        imgs = rng.standard_normal((3, 48))
        feats, _ = features.embed_vjp(net, imgs)
        np.testing.assert_array_equal(feats, features.embed(net, imgs))

    def test_shape_errors(self, net):
        with pytest.raises(ValueError):
            features.embed_vjp(net, np.zeros((1, 47)))
        _, pullback = features.embed_vjp(net, np.zeros((1, 48)))
        with pytest.raises(ValueError):
            pullback(np.zeros((1, 9)))
        _, pullback = features.embed_vjp(net, np.zeros((2, 48)))
        with pytest.raises(ValueError):
            pullback(np.zeros((1, 8)))


def test_min_preactivation_gap_nonnegative(net, rng):
    assert features.min_preactivation_gap(net, rng.standard_normal(48)) >= 0
