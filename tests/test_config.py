import pytest

from ksqrng.config import parse_config
from ksqrng.errors import ConfigError
from ksqrng.protocol import ProtocolConfig
from ksqrng.readout import IQPoint, NoiseParams

MINIMAL = "trials = 100\nseed = 7\n"


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg == ProtocolConfig(n_trials=100, seed=7, noise=NoiseParams(), ideal=False)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ntrials = 5\n  seed=9  \n")
        assert cfg.n_trials == 5 and cfg.seed == 9

    def test_full_noise_override(self):
        text = MINIMAL + (
            "ideal = true\n"
            "p_thermal_1 = 0.002\n"
            "p_thermal_2 = 0.0005\n"
            "gate_amp_error = 0.01\n"
            "p_decay_10 = 0.05\n"
            "p_decay_21 = 0.1\n"
            "iq_sigma = 0.25\n"
            "iq_center_0 = 2, 0\n"
            "iq_center_2 = -2, 0.5\n"
            "bucket_size = 1000\n"
            "ss_limit = 5000\n"
            "ss_witnesses = 16\n"
        )
        cfg = parse_config(text)
        assert cfg.ideal is True
        assert cfg.noise.p_thermal_1 == 0.002
        assert cfg.noise.p_thermal_2 == 0.0005
        assert cfg.noise.gate_amp_error == 0.01
        assert cfg.noise.p_decay_10 == 0.05
        assert cfg.noise.p_decay_21 == 0.1
        assert cfg.noise.iq_sigma == 0.25
        assert cfg.noise.iq_centers[0] == IQPoint(2.0, 0.0)
        assert cfg.noise.iq_centers[1] == IQPoint(0.0, 1.0)  # default kept
        assert cfg.noise.iq_centers[2] == IQPoint(-2.0, 0.5)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'p_thermal_3'"):
            parse_config(MINIMAL + "p_thermal_3 = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("trials = 1\ntrials = 2\nseed = 0\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("seed = 0\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config("trials = 10\n")

    def test_out_of_range_probability_names_key(self):
        with pytest.raises(ConfigError, match="p_thermal_1"):
            parse_config(MINIMAL + "p_thermal_1 = 1.5\n")

    def test_malformed_values(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials = ten\nseed = 0\n")
        with pytest.raises(ConfigError, match="ideal"):
            parse_config(MINIMAL + "ideal = yes\n")
        with pytest.raises(ConfigError, match="iq_center_0"):
            parse_config(MINIMAL + "iq_center_0 = 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("trials 5\n")

    def test_range_validation(self):
        cases = [
            ("trials = 0\nseed = 1\n", "n_trials must be >= 1"),
            ("trials = 1\nseed = -1\n", "seed must fit in 64 bits"),
            (MINIMAL + "bucket_size = 0\n", "bucket_size must be >= 1, got 0"),
            (MINIMAL + "ss_limit = 2\n", "ss_limit must be >= 3, got 2"),
            (MINIMAL + "ss_witnesses = 0\n", "ss_witnesses must be >= 1, got 0"),
        ]
        for text, message in cases:
            with pytest.raises(ConfigError, match=message):
                parse_config(text)
