import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ksqrng.config import _PARSERS, parse_config
from ksqrng.errors import ConfigError
from ksqrng.protocol import ProtocolConfig
from ksqrng.readout import NoiseParams

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
        assert cfg.noise.iq_centers[0] == (2.0, 0.0)
        assert cfg.noise.iq_centers[1] == (0.0, 1.0)  # default kept
        assert cfg.noise.iq_centers[2] == (-2.0, 0.5)

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

    def test_number_forms(self):
        cfg = parse_config("trials = 007\nseed = -0\ngate_amp_error = 5E-3\niq_center_0 = 1.5e+0, -0.25\n")
        assert (cfg.n_trials, cfg.seed, cfg.noise.gate_amp_error) == (7, 0, 0.005)
        assert cfg.noise.iq_centers[0] == (1.5, -0.25)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("trials = 1_000", "trials must be an integer"),
            ("trials = +12", "trials must be an integer"),
            ("seed = \u0663", "seed must be an integer"),  # an Arabic-Indic 3
            ("p_decay_10 = 0_0.5", "p_decay_10 must be a number"),
            ("p_decay_10 = \u0660.5", "p_decay_10 must be a number"),  # an Arabic-Indic 0
            ("iq_center_0 = 1_0, 0", "iq_center_0 must be a number"),
        ],
        ids=["int-underscore", "int-plus", "int-arabic-indic", "float-underscore", "float-arabic-indic", "center-underscore"],
    )
    def test_numbers_are_ascii_decimal_literals(self, line, message):
        key = line.split()[0]
        text = "".join(f"{k} = 7\n" for k in ("trials", "seed") if k != key) + line + "\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_range_validation(self):
        cases = [
            ("trials = 0\nseed = 1\n", "n_trials must be >= 1"),
            ("trials = 1\nseed = -1\n", "seed must fit in 64 bits"),
            (MINIMAL + "bucket_size = 0\n", "bucket_size must be >= 1, got 0"),
            (MINIMAL + "ss_limit = 2\n", "ss_limit must be >= 3, got 2"),
            (MINIMAL + "ss_witnesses = 0\n", "ss_witnesses must be >= 1, got 0"),
            (MINIMAL + "iq_center_0 = 1e999, 0\n", "iq_center_0 must be finite"),
        ]
        for text, message in cases:
            with pytest.raises(ConfigError, match=message):
                parse_config(text)


def config_or_config_error(text):
    """``parse_config(text)`` returns a ProtocolConfig or raises ConfigError."""
    try:
        assert isinstance(parse_config(text), ProtocolConfig)
    except ConfigError:
        pass


numbers = hst.one_of(
    hst.integers().map(str),
    hst.integers(-5, 2**64 + 5).map(str),
    hst.floats().map(repr),
    hst.floats(0.0, 1.0).map(repr),
)
values = hst.one_of(
    numbers,
    hst.tuples(numbers, numbers).map(", ".join),
    hst.sampled_from(["true", "false", "", "1,2,3", "0x10", "1_000"]),
    hst.text(max_size=12).filter(lambda v: "\n" not in v and "\r" not in v),
)


class TestFuzz:
    @given(hst.text(max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text(self, text):
        config_or_config_error(text)

    @given(
        trials=numbers,
        seed=numbers,
        extra=hst.dictionaries(hst.sampled_from(sorted(set(_PARSERS) - {"trials", "seed"})), values, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_known_keys_with_any_values(self, trials, seed, extra):
        lines = [f"trials = {trials}", f"seed = {seed}"] + [f"{k} = {v}" for k, v in extra.items()]
        config_or_config_error("\n".join(lines))
