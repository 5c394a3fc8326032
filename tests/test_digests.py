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
        "trace": "f4bb54afdbefdc9b622858589e98020f492de1a9281bd2db96eb8481c2274706",
        "gen.rpt": "505959889207d87d279a186acaed6284808dca99cfc3489610bb1df660539c94",
        "cert.rpt": "56fe5dce0f5ae88fb61cd5f33f46432f261e4b95d182046ccb68029854cbb69f",
        "bits": "284c4fcd9749f86e9917a67e5354188b61f5170d3777648497146b5cca7597de",
        "ext.rpt": "10f3067356f84266df12181d8fe42acc119d836174c28f83a4a3a9c89bc6a792",
        "stat.rpt": "5b4b63ab01bceec628e57082911dc578a50f76af84704df1c863ea698b882f67",
        "ss.rpt": "60cbd73df4f2c6d9938aa322b72db0e0882a3dceeedf22b994f5ae518e4faa8c",
        "ss-10000.rpt": "85f932bd91fb982b1d22130d47c27403d800f43b9912465bb6980b0ee006d4da",
    },
    ("calibrated", "ideal"): {
        "trace": "849d96a6a01d8c5df963643579f598f8129e8670be3262fe12e4163bd97c838b",
        "gen.rpt": "e67efbf487a4a101a9959a8b09721cddec428098bebf75f7f419d45bb964cc24",
        "cert.rpt": "89741115f526eb4e9f649325c2c720c50679a6d891af7ffd054be4c77367e70d",
        "bits": "eda5cd5e7fb0d0f0704a40dbc048de4426c1fd16e163480ad36efd2a58451669",
        "ext.rpt": "92aad92e1da9b4f1b78864efba249e9b2aed2359d39d96fddbd8bd99fdbd2fdd",
        "stat.rpt": "ed1cf67a2fc2b9bd156c5d60e6dd8de8d69e256052f728973438ad9be65c8f5c",
        "ss.rpt": "fd8811a527f5fdd189cdaba15897b23474bbf888d8d7ecff798ec4b2d318dbab",
        "ss-10000.rpt": "6cc54c8f7129767bddb3c88171b18d7dcc10a112d0a8c7cda4c74b66557cbf15",
    },
    ("criterion-8", "noisy"): {
        "trace": "04548f60f7b589fc5bc169a1669d3ff3957f6822e23eb1f2d741a4d0b66ee4e4",
        "gen.rpt": "e98332510f7b0108c935bc250071293252612e7dee149d45c46a4e155e8d1035",
        "cert.rpt": "c47d002d338db2df5cd0c37dd1078b738b85eb3af3fd93b87f5c98a5f5083345",
        "bits": "2e211ce3010ee6960037df1a93b3400905c0e87fe1ed4167cc97fafb080dfc38",
        "ext.rpt": "13c65f249eee52eddd744ef7fbaa8c1b61706ac522c9e91099fbfd389fbf0a48",
        "stat.rpt": "1993e66a3a11bf2acb88bc23b0be1711496c8a8ba2b4ae27718a5bdeef6b9e2b",
        "ss.rpt": "8f341fc6a173fbacdcd629af43b2878dac24d5e21a2a727db8b9739d1b732887",
        "ss-10000.rpt": "e92334936c5686f27098987db97c9787b034e310dbb057c552fb2239945bfa53",
    },
    ("criterion-8", "ideal"): {
        "trace": "d3f786264a423862cd652a25d7a5671ff57fe299e0ec4cf6de11b6b68269ad54",
        "gen.rpt": "5b71a27da81f70b87038832b23f339b493895472e0c78f7dfdd6846579723fac",
        "cert.rpt": "5ea38c7535e5c72a5146768af423115fc4e6ebf09d5286285eb60612d1be2d10",
        "bits": "a22277a9065d7f261e5d67597504b0a6d077edd406b7c63a25cca86c423f7e4f",
        "ext.rpt": "3fae052b562aa8c61d81c14d27084d0bf27e6fcc210dfc5b5936ba425fe8d267",
        "stat.rpt": "3891cd723bd5b714bd72b143a547a51b9f03fb2530de01e4cb33f97ccb3f0285",
        "ss.rpt": "454b8cb743007842ab0f4e0eeeaa1d732a8fb289740e59859d1a290a52297a3a",
        "ss-10000.rpt": "c620e41ec8d1fb348bbccebc41bbe1da9d169277dc579eca5699aad19bd3456b",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, mode", DIGESTS, ids=[f"{c}-{m}" for c, m in DIGESTS])
def test_output_digests(tmp_path, config, mode, workers):
    assert output_digests(tmp_path, config, mode == "ideal", workers) == DIGESTS[config, mode]
