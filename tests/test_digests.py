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
        "trace": "5446d63728974ee8bd878a7fb418df851c0bd7ee4fe53d553cf17f855a6b2643",
        "gen.rpt": "c7232a95d95f7ff9a11aefb36232be09e88975f790ca61f4fb5228103446fd5b",
        "cert.rpt": "d461e9401def798fb1047fb0d9ac3aebb7833731569da94f582895f6b5744dbb",
        "bits": "2b99837cf7c669a2c522d8f5642feed32332725224501d5961375635e4b3e020",
        "ext.rpt": "3a427c376a82d005796d1c1d918d882c128246092fbf62d0d6c4b9878d4e6d1c",
        "stat.rpt": "94a81805e411f6c5f7f6cc77a523a0924fd7c132b8f4d0598f53287f3b170bb0",
        "ss.rpt": "4c9a4c4bc12c2fc9e27c26784cfae75696a3a5f501af098a28696c47e0939c45",
        "ss-10000.rpt": "4371856e3f8bb3af330651fe8b2ecc277e0a3949bbdfcd5c1f9dd88e139c7ea8",
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
        "trace": "4aa674254ff7edd6c7768440ad1c88b7e6306579f89d75a452661d0ac85e1609",
        "gen.rpt": "8ddd6733d9bf051cb13c08b376d2554116d5eedd749a1b85e3207f0f4b6b3189",
        "cert.rpt": "fefe7f99064d9ef9003c977fc80a4b334801bdb57fdf9faadd4225216f51eb8d",
        "bits": "fc9253655ed8dbb16a27f16124ded93b1d25bd49796c809740d4c63ff425818e",
        "ext.rpt": "ada3f0a03be3a47134ab62e7885dfcc1ef9da848c22da3964d723f47660f34be",
        "stat.rpt": "094e83ffd5988e995a2797042b7fdb90013dff6b1aa22157dd4b474262ae2b5c",
        "ss.rpt": "c27d83b47314cecca75f8560bbc7afe2af8d7269b127c0106afc22ce9b95603b",
        "ss-10000.rpt": "27bcef8eb36b2b40c4c36f62516c6a0a9c03d5f6f39da56ee5b50b9a9f127d02",
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
