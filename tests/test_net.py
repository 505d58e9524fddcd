import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from axppo.net import (
    NetworkConfig,
    _write_text_atomic,
    backprop,
    forward,
    forward_single,
    init_params,
    load_checkpoint,
    save_checkpoint,
    unpack_params,
)

# obs_dim=1, one hidden unit, trunk weight 1, policy head (1, -1), value weight 2,
# all biases zero; flat layout: [w_trunk, b_trunk, w_pi0, w_pi1, b_pi0, b_pi1, w_v, b_v]
TOY_CONFIG = NetworkConfig(obs_dim=1, hidden_sizes=(1,), action_count=2)
TOY_PARAMS = np.array([1.0, 0.0, 1.0, -1.0, 0.0, 0.0, 2.0, 0.0])


def test_param_count_formula():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)
    expected = (4 + 1) * 64 + (64 + 1) * 64 + (64 + 1) * 2 + (64 + 1) * 1
    assert cfg.param_count == expected == 4675
    assert TOY_CONFIG.param_count == 8


@pytest.mark.parametrize("bad", [
    dict(obs_dim=0, hidden_sizes=(4,), action_count=2),
    dict(obs_dim=4, hidden_sizes=(4,), action_count=1),
    dict(obs_dim=4, hidden_sizes=(0,), action_count=2),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        NetworkConfig(**bad)


def test_init_biases_zero_and_deterministic():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)
    p1 = init_params(cfg, np.random.default_rng(123))
    p2 = init_params(cfg, np.random.default_rng(123))
    assert np.array_equal(p1, p2)
    for w, b in unpack_params(p1, cfg):
        assert np.all(b == 0.0)


def test_init_respects_uniform_bound():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)
    params = init_params(cfg, np.random.default_rng(7))
    layers = unpack_params(params, cfg)
    # first trunk layer 4 -> 64: |w| <= sqrt(6/68)
    bound = np.sqrt(6.0 / (4 + 64))
    assert np.all(np.abs(layers[0][0]) <= bound)
    assert bound == pytest.approx(0.2970, abs=1e-4)
    for (fan_in, fan_out), (w, _) in zip(cfg.layer_dims, layers):
        assert np.all(np.abs(w) <= np.sqrt(6.0 / (fan_in + fan_out)))


def test_forward_zero_params_zero_outputs():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(8,), action_count=2)
    params = np.zeros(cfg.param_count)
    out, _ = forward(params, cfg, np.random.default_rng(0).standard_normal((5, 4)))
    assert np.all(out.logits == 0.0)
    assert np.all(out.values == 0.0)


def test_forward_toy_network_hand_values():
    out, trace = forward(TOY_PARAMS, TOY_CONFIG, np.array([[0.5]]))
    h = np.tanh(0.5)
    assert out.logits[0, 0] == pytest.approx(h, abs=1e-12)
    assert out.logits[0, 1] == pytest.approx(-h, abs=1e-12)
    assert out.values[0] == pytest.approx(2 * h, abs=1e-12)
    assert out.logits[0, 0] == pytest.approx(0.462117, abs=1e-6)
    assert out.values[0] == pytest.approx(0.924234, abs=1e-6)
    assert trace.inputs.shape == (1, 1)
    assert trace.activations[0][0, 0] == pytest.approx(h, abs=1e-15)


def test_forward_batch_of_identical_obs():
    cfg = NetworkConfig(obs_dim=3, hidden_sizes=(6, 5), action_count=3)
    params = init_params(cfg, np.random.default_rng(11))
    obs = np.tile(np.array([0.2, -0.4, 0.9]), (7, 1))
    out, _ = forward(params, cfg, obs)
    assert np.all(out.logits == out.logits[0])
    assert np.all(out.values == out.values[0])


def test_forward_is_pure():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(16,), action_count=2)
    params = init_params(cfg, np.random.default_rng(3))
    obs = np.random.default_rng(4).standard_normal((6, 4))
    out1, _ = forward(params, cfg, obs)
    out2, _ = forward(params, cfg, obs)
    assert np.array_equal(out1.logits, out2.logits)
    assert np.array_equal(out1.values, out2.values)


def test_forward_single_matches_batch():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(8, 8), action_count=2)
    params = init_params(cfg, np.random.default_rng(9))
    obs = np.array([0.1, -0.2, 0.3, -0.4])
    logits, value = forward_single(unpack_params(params, cfg), obs)
    out, _ = forward(params, cfg, obs[None, :])
    np.testing.assert_allclose(logits, out.logits[0], rtol=1e-12)
    assert value == pytest.approx(out.values[0], rel=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_forward_single_matches_plain_formula_bitwise(seed):
    # guards the np.dot and in-place forms against the plain a @ w + b on the BLAS numpy uses
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)
    rng = np.random.default_rng(seed)
    unpacked = unpack_params(init_params(cfg, rng) + 0.1 * rng.standard_normal(cfg.param_count),
                             cfg)
    (w0, b0), (w1, b1), (w_pi, b_pi), (w_v, b_v) = unpacked
    for obs in rng.standard_normal((1000, 4)) * np.array([1.0, 2.0, 0.2, 2.0]):
        a = np.tanh(np.tanh(obs @ w0 + b0) @ w1 + b1)
        logits, value = forward_single(unpacked, obs)
        assert logits.tobytes() == (a @ w_pi + b_pi).tobytes()
        assert value == float(a @ w_v[:, 0] + b_v[0])


@given(
    seed=st.integers(0, 2**32 - 1),
    param_scale=st.floats(1e-3, 1e300),
    obs=st.lists(st.floats(width=64), min_size=4, max_size=4),
)
@example(seed=0, param_scale=1.0, obs=[0.0, 0.0, 0.0, 0.0])
@example(seed=1, param_scale=1e300, obs=[1e308, -1e308, 5e-324, np.inf])
def test_forward_single_logits_only_matches_default(seed, param_scale, obs):
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)
    rng = np.random.default_rng(seed)
    unpacked = unpack_params(param_scale * rng.standard_normal(cfg.param_count), cfg)
    obs = np.array(obs)
    with np.errstate(all="ignore"):  # overflow and inf - inf are inputs here
        logits, _ = forward_single(unpacked, obs)
        logits_only = forward_single(unpacked, obs, with_value=False)
    assert type(logits_only) is np.ndarray
    assert logits_only.tobytes() == logits.tobytes()


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(TOY_PARAMS, TOY_CONFIG, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        forward(np.zeros(5), TOY_CONFIG, np.zeros((3, 1)))


def test_backprop_zero_partials_zero_gradient():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(6,), action_count=2)
    params = init_params(cfg, np.random.default_rng(2))
    _, trace = forward(params, cfg, np.random.default_rng(5).standard_normal((4, 4)))
    grads = backprop(cfg, trace, np.zeros((4, 2)), np.zeros(4))
    assert grads.shape == params.shape
    assert np.all(grads == 0.0)


def test_backprop_toy_value_head_gradient():
    _, trace = forward(TOY_PARAMS, TOY_CONFIG, np.array([[0.5]]))
    grads = backprop(TOY_CONFIG, trace, np.zeros((1, 2)), np.array([1.0]))
    # layout: [w_trunk, b_trunk, w_pi (2), b_pi (2), w_v, b_v]
    h = np.tanh(0.5)
    assert grads[6] == pytest.approx(h, abs=1e-12)  # value-head weight
    assert grads[6] == pytest.approx(0.462117, abs=1e-6)
    assert grads[7] == pytest.approx(1.0, abs=1e-12)  # value-head bias
    # chain through the trunk: dh = 2, dz = 2 * (1 - h^2)
    assert grads[0] == pytest.approx(0.5 * 2 * (1 - h * h), abs=1e-12)


def test_backprop_gradient_shares_no_memory_with_trace():
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(6, 5), action_count=2)
    params = init_params(cfg, np.random.default_rng(2))
    _, trace = forward(params, cfg, np.random.default_rng(5).standard_normal((4, 4)))
    d_logits, d_values = np.ones((4, 2)), np.ones(4)
    grads = backprop(cfg, trace, d_logits, d_values)
    traced = [trace.inputs, *trace.activations, *(a for layer in trace.layers for a in layer)]
    assert not any(np.shares_memory(grads, a) for a in [params, d_logits, d_values, *traced])
    assert np.array_equal(grads, backprop(cfg, trace, d_logits, d_values))


def test_backprop_shape_mismatch():
    _, trace = forward(TOY_PARAMS, TOY_CONFIG, np.array([[0.5]]))
    with pytest.raises(ValueError):
        backprop(TOY_CONFIG, trace, np.zeros((2, 2)), np.zeros(2))


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)
    params = init_params(cfg, np.random.default_rng(42))
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, cfg, params)
    cfg2, params2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(params, params2)
    # a second write of the loaded values is byte-identical
    path2 = tmp_path / "checkpoint2.txt"
    save_checkpoint(path2, cfg2, params2)
    assert path.read_text() == path2.read_text()


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "checkpoint.txt"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate cannot be encoded
        _write_text_atomic(path, "0x1.0p+0\n" * 10_000 + "\ud800")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_rejects_wrong_length(tmp_path):
    cfg = NetworkConfig(obs_dim=2, hidden_sizes=(3,), action_count=2)
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.txt", cfg, np.zeros(cfg.param_count + 1))
    # load_checkpoint refuses a file that holds one value too few or too many, or nothing
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, cfg, np.zeros(cfg.param_count))
    header, *values = path.read_text().splitlines()
    for count in (cfg.param_count - 1, cfg.param_count + 1):
        path.write_text("\n".join([header] + (values * 2)[:count]) + "\n")
        with pytest.raises(ValueError, match=f"holds {count} values, expected {cfg.param_count}$"):
            load_checkpoint(path)
    path.write_text("")
    with pytest.raises(ValueError, match="^empty checkpoint file: "):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_activation(tmp_path):
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, TOY_CONFIG, TOY_PARAMS)
    path.write_text(path.read_text().replace('"tanh"', '"relu"', 1))
    with pytest.raises(ValueError, match="activation"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    params = TOY_PARAMS.copy()
    params[2] = bad
    path = tmp_path / "diverged.ckpt"
    save_checkpoint(path, TOY_CONFIG, params)
    with pytest.raises(ValueError, match="diverged.ckpt"):
        load_checkpoint(path)


@pytest.mark.parametrize("header,field", [
    ('{"obs_dim": 4}', "hidden_sizes"),
    ('{"hidden_sizes": [64, 64], "action_count": 2}', "obs_dim"),
    ('[1, 2]', None),
    ('{"obs_dim": "4", "hidden_sizes": [64, 64], "action_count": 2}', "obs_dim"),
    ('{"obs_dim": 4, "hidden_sizes": [64, "64"], "action_count": 2}', "hidden_sizes"),
    ('{"obs_dim": 4, "hidden_sizes": 64, "action_count": 2}', "hidden_sizes"),
    ('{"obs_dim": 4, "hidden_sizes": [64, 64], "action_count": true}', "action_count"),
    ('{"obs_dim": 4, "hidden_sizes": [64, 64], "action_count": 0}', None),
    ('{"obs_dim": 4,', None),
], ids=["no-hidden_sizes", "no-obs_dim", "not-an-object", "string-obs_dim",
        "string-in-hidden_sizes", "scalar-hidden_sizes", "bool-action_count", "zero-action_count",
        "not-json"])
def test_checkpoint_rejects_malformed_header(tmp_path, header, field):
    path = tmp_path / "malformed.ckpt"
    path.write_text(header + "\n" + "0x0.0p+0\n" * 4675)
    with pytest.raises(ValueError, match="malformed.ckpt") as exc:
        load_checkpoint(path)
    if field is not None:
        assert repr(field) in str(exc.value)


def test_checkpoint_rejects_bad_hex_value(tmp_path):
    path = tmp_path / "badhex.ckpt"
    save_checkpoint(path, TOY_CONFIG, TOY_PARAMS)
    path.write_text(path.read_text().replace(float(TOY_PARAMS[0]).hex(), "0xzz", 1))
    with pytest.raises(ValueError, match="badhex.ckpt"):
        load_checkpoint(path)
