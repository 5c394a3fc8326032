"""Byte identity: the SHA-256 of every trace, bit and report file the CLI
writes on two fixed configurations, noisy and ideal, on one and two workers.

A change that is meant to move an output file updates its digests here and
names them in CHANGES.md; any other move fails this test.
"""

import hashlib

import pytest

from ksqrng.cli import run_cli

CONFIGS = {
    # the README's calibrated configuration (its noise keys are the
    # defaults, as test_readme checks) at 2^18 trials
    "calibrated": "trials = 262144\nseed = 20260810\n",
    # the configuration of acceptance criterion 8
    "criterion-8": "trials = 200000\nseed = 314159\n",
}

FILES = ("trace", "gen.rpt", "cert.rpt", "bits", "ext.rpt", "stat.rpt", "ss.rpt", "ss-10000.rpt")


def output_digests(tmp_path, config: str, ideal: bool, workers: int) -> dict[str, str]:
    """Run all five subcommands on ``config`` and hash every file they write."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[config])
    p = {name: str(tmp_path / name) for name in FILES}
    generate = ["generate", "--config", str(cfg), "--out", p["trace"], "--report", p["gen.rpt"]]
    for argv in (
        generate + ["--workers", str(workers)] + (["--ideal"] if ideal else []),
        ["certify", "--in", p["trace"], "--report", p["cert.rpt"]],
        ["extract", "--in", p["trace"], "--out", p["bits"], "--report", p["ext.rpt"]],
        ["stats", "--in", p["bits"], "--bucket", "10000", "--report", p["stat.rpt"]],
        ["consume-ss", "--in", p["bits"], "--report", p["ss.rpt"]],
        ["consume-ss", "--in", p["bits"], "--limit", "10000", "--report", p["ss-10000.rpt"]],
    ):
        assert run_cli(argv) == 0, argv
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES}


DIGESTS = {
    ("calibrated", "noisy"): {
        "trace": "966aa3cacbf75cd976b9e6dc1c39e13b8e9328b451791c8ea706c5e1838e585a",
        "gen.rpt": "f03561051696e039998baa94deb28eaf802988e834c9324349214b0c860ec77e",
        "cert.rpt": "f88783444cab0bbac9b9a1d25bebd000617fdd620c5149716d8bb123a13fe02b",
        "bits": "9a52ed37b8832d58d3e04a3f37101b8ab75912ef8d04dcf867aa2f59017c10a3",
        "ext.rpt": "d89e83530c9aed1fcc91e664705c2414198631de0a85057f7d6e7c4c384cde32",
        "stat.rpt": "3557afe99ea94d08c988c94df86e56ca55eaffe7429b00982acb36658c562197",
        "ss.rpt": "3fbf769ca610699a99d869a468dce304fe1e637ba47a38739a262fa2544c8880",
        "ss-10000.rpt": "3d6bc66cb7109316bc13e7ac7d461e70e01c71c79716fca6a072a83ece6422b0",
    },
    ("calibrated", "ideal"): {
        "trace": "e4f952d6632c90f7076f05899b36edd2a6167a0c52d9c037e182c7435550bcf8",
        "gen.rpt": "5041cd89d7d62e3badf9ebc32c6b6973e6ff9c92b0b152eb2f2394b7404efba1",
        "cert.rpt": "94195c37ba810638992db4c78b6647e3bd1d75a8c76b2e772153c0368b0ef7c1",
        "bits": "ddab6657df4538d7b29f8a41030f248544d20c4fa9de8b7919173a50ce9888a1",
        "ext.rpt": "8d9210cb8f13f0245e350b6c8c058246786d70255f1554370b0206f18f3ffb84",
        "stat.rpt": "025b6d4e6f486d5b8277032e02d0fafdaaa8b485a0b1674db79c61cf487c6c82",
        "ss.rpt": "f3250f2614868b79d44e66b39922a71fd188679e94e40edd63715b32fb7ec100",
        "ss-10000.rpt": "f674a43ccdddf13d7cec3291019618d51f2b987c70b033bcaa8dd685bfb44c7f",
    },
    ("criterion-8", "noisy"): {
        "trace": "9b60849db90699338e8ace639f502564e4ea7e441124905d0dcd8cea0fdfa3f6",
        "gen.rpt": "b4a2cb857f1c3b2979398c20812f366b63d3ea60a29a625017b8ebc5aa4fb80d",
        "cert.rpt": "9ced9e5e06e9d187b1625743de1f4b04a99286577fc46ab40da0023cbc05cbb3",
        "bits": "44ddbad53781a5b21742213bba7ee10cbb780b3b9ff766ffa4d84d72e00229f0",
        "ext.rpt": "1a1fbd07954d7d437c467cdb57f5bf70866fd336d659476afe3c4e7a1d901eee",
        "stat.rpt": "aa59fa717d909ba9c2b00c0559437edda2b54391b5436c349ab4034db691e24f",
        "ss.rpt": "7d8b9b8fc69dcc655be946962f8ae65b4c70cf4a1777a3db9f88be1ab643067a",
        "ss-10000.rpt": "39f0748b6c1ca4417ea984dc0ee2a1cc774f5de6d7a451365fb4b525c2371750",
    },
    ("criterion-8", "ideal"): {
        "trace": "1b0940fd9fff59f604f5e2843e9b20afff4af65219d3e5ee0f324f5502d135f9",
        "gen.rpt": "f8cfbd93e8d3e367709c9874264610acd1ee3a52b3d26d3c9b215756552082a9",
        "cert.rpt": "4ae520d68ec0b480f36a1f0c8828e08bbd4d44581589e0a29537c58186493473",
        "bits": "b1ef928a326df8d7a430dac4e920982f6565d0065e7846f5e018293c91491c21",
        "ext.rpt": "313f3b1caba6f51aeb1e1e0af6b9298f30ac0a4443bbcbf4c1ff7e819b5ad189",
        "stat.rpt": "6036d37b322301b98b51c6dc8cc9f150527d88e5986e16a63e59f13f1ec5e6d2",
        "ss.rpt": "a1764e6568e3b8572339e97aaf2af79599c5b9d9563ce95b283f28bef90445d0",
        "ss-10000.rpt": "d5a0283ce83f40ab772f2240bd819fe59da27f11eb22f0d48a515004e44364a3",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, mode", DIGESTS, ids=[f"{c}-{m}" for c, m in DIGESTS])
def test_output_digests(tmp_path, config, mode, workers):
    assert output_digests(tmp_path, config, mode == "ideal", workers) == DIGESTS[config, mode]
