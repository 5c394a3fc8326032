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
        "trace": "ac9fba992d9bf1ddd791b685dc96450720c6944272de5ca3dc559641ab88e6bf",
        "gen.rpt": "770e2bc978ddece080317e0260e46c44851ff8a49643134534a3eaefa992b9bb",
        "cert.rpt": "9286af38b58d22b2bc6e048744299c72243b5747dbc5b7d1904e7918eca8ca12",
        "bits": "68b64c840e77e5d6043b4ed25fceb2af0d6d2c71ff4ce958dec0eb4788d5c621",
        "ext.rpt": "2175cc7f317fa94a953629a70c0757327ff8d04bd616e609f1e8c9220eeadfd7",
        "stat.rpt": "4f4e4e6c817d6bd652ca75742b26eb1adbfb2164972963129236d45dfd245b1f",
        "ss.rpt": "41e53b780df675bb5b4934a70166ee30f417ff8144828d506602ba630fa41901",
        "ss-10000.rpt": "359c12eced81106cdd22ccab544536aa564d2285c92cd52c6cb9b4350cb204d8",
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
        "trace": "7b0e867c8c3ccc090cf2f24d235de45733d60e487a4c54828b756937864dbf77",
        "gen.rpt": "98a072948aefb14e169a6c168e16ba80319c78c12cd2448f326a1b8fb7fb1113",
        "cert.rpt": "2e3abc18488b3e50ce778f0be346390b5680267d80d25552a47d54ed662a08c8",
        "bits": "c482c16acfc18ca280691667c0d60d3423b6e9fa549e8cca7ecf16c3edaab342",
        "ext.rpt": "81070944c40d8027a696c4ba073a1658d17eff8be23fd2ecddc9223414462c51",
        "stat.rpt": "cf4f0155d7a9b0d3e78addd4cd0316bdf875f0953d7cc6110d878a76ce109414",
        "ss.rpt": "9ea394d8f687b5b1761470b668d3fcd23805d5929bbcdad4cda6d32ce0869efb",
        "ss-10000.rpt": "3cd2357d99ede57a8085124af9147c06740d3419d55f59b4b31c65866fc50c53",
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
