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
        "trace": "349de725f68f649ba26c07ebfd117a1403b86cdd8b5d169d4c34fdbf26c840d1",
        "gen.rpt": "192c45a4828c9dd814dad5c9221441e4fd43af676d96a08237d17f43cbaa4fdc",
        "cert.rpt": "83eba62e27581cb088c17a3736fd138783f7d8f04501a88181fb74474872798b",
        "bits": "f3794be7418cb85d56a8b8b9c9cf51e5f5edc609a6788fddcb60a2539ec036d6",
        "ext.rpt": "399d720771bcddf903ec299b2409d03f7047f704dfbcebcf53312b1ab9ccebdd",
        "stat.rpt": "712695d1eb698a885e46ea4fbddefb8e8ace35bd9700e6043ab3748b2a6c30e0",
        "ss.rpt": "d18d2b35d1d0945704391e5f9ed89ac8925d2c7a8d897dcbb571af992636330f",
        "ss-10000.rpt": "530dd82eaaf66155ad9cb3263ec31455281f33fea0cac02ded400542f55ee88c",
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
        "trace": "3808dc15d3850b596166de6e0ccf9601014307e05f78c6e6fc905e40dda5985f",
        "gen.rpt": "a53736655a47e545e7286a5e44be8fdef902fdb884a13141d11b6062c395d7c6",
        "cert.rpt": "41876ff18a7ce43dbf970711f7787974708c1743306f3defb6b64c74a93eaccd",
        "bits": "85a8bd03416d02346e020d23203038eb93f57088aef7083001687563ac1bda54",
        "ext.rpt": "01bcb997dd6e091259977a490b3a1fa854c8734d3308fc037e619fa7ec5ab97c",
        "stat.rpt": "a30562627a92a770771f6d9e1baf2f7adb6e5874fdc395ca43a39fdbb37e5be3",
        "ss.rpt": "f6fb0c3157f97a70c5cf37881fdb53f485fc08b5c50bd612fb50b5f58884455b",
        "ss-10000.rpt": "340506e8422661037320af10c9eb6d023e7ec64340a97a195d58d89f75d9ec51",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, mode", DIGESTS, ids=[f"{c}-{m}" for c, m in DIGESTS])
def test_output_digests(tmp_path, config, mode, workers):
    assert output_digests(tmp_path, config, mode == "ideal", workers) == DIGESTS[config, mode]
