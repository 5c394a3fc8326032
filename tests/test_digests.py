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
        "trace": "b11d22f16bfe4d8a165b2aa66dfe0087916184b77c864a11d8b46509eb738b1d",
        "gen.rpt": "77c9c68c29ce7255cebd0fba98a73c1e9909a8c207d2b731abf9c480f2a0a518",
        "cert.rpt": "c17089d3fcbfc2ffbf90f2b780018ce2f4567e749645547e14f511d0aa2d22b9",
        "bits": "a3a0228338139da68bab43584fce0e49c6a767b999995c16a25127dcfe31b215",
        "ext.rpt": "ef386d05fd85100b2c6cc77d9c515ddffe6bcec090e5c9521738fa106671772c",
        "stat.rpt": "bad0f288e1fa817adb2688efd2d3729498deb115be5a7326648fe771a630dfcf",
        "ss.rpt": "da685c810e509ca4412b8637ff8578a8d78bb71c59c720d116df42560e03dd96",
        "ss-10000.rpt": "c1eedfbee0784d627b9ce2f2fbbd4bfb9fdf48671c045aceacfd275c6022e238",
    },
    ("calibrated", "ideal"): {
        "trace": "efa1aba4414c2e89abd8c7abb37a87751134623a26082a750768b6e97afcb7ae",
        "gen.rpt": "0ff0d4e25c4ccd1de53a04ba5792219d96decf58fb55216c7f92ab083e767487",
        "cert.rpt": "cd98095315c39a247a09dbf24d1554157fb9e13158f73bbffceea13b8a12924c",
        "bits": "32b171c352d00409168d9bb888b808323e2ecceeb59230768bc0e709bc869224",
        "ext.rpt": "59b1b9dc2fa96c47b66d449118fbc30fd772b4250e67dd5b4f70d48b6cf1dbc9",
        "stat.rpt": "1d7ae63f5a8e82ba33789529b9165bc82b0b33e597acd10b2d46139012477631",
        "ss.rpt": "a810dc544c3c5d60613ae9c78a6b200c26d2f30f3f0175599c9072f89ecee173",
        "ss-10000.rpt": "4b617ee5e9add7eec1ffdd9d3db1de3885f4d4628f45c3486875dc1d16aca1c5",
    },
    ("criterion-8", "noisy"): {
        "trace": "89c9757d858b5d913f6db47aa97647e138477531468db799abc46ade79e1a23b",
        "gen.rpt": "f6443db87be96bc930e9f7cea12dbee103f76b13b47a45832b2f71dc72e5fcf1",
        "cert.rpt": "7c014e6de4665396788480ee7cda4c760920c76c79bae7a2a945ed6fe279fd12",
        "bits": "64e16dc3611146ac3863b0a21cfc96e290cea004f7397f55a7cab43b0982fdfe",
        "ext.rpt": "b737dcbbabc4d03a727584022195e08b5cc324bef7a1cc37411e73297c877776",
        "stat.rpt": "cdf5df927a88e3b47bbb0dced6bc8d6dfc23f734fbb7ecc105074abc55465668",
        "ss.rpt": "29b54df34d6569049bb75b5af4deb37be8eae423d65a7f9677d24cb1d78cafe4",
        "ss-10000.rpt": "1279516c22cded4bdb0c9e6c8e39c97f6ec1755f559e63ff212a245577200f01",
    },
    ("criterion-8", "ideal"): {
        "trace": "54cc8d0f64a05e5108fe602194986fd073448f0c3bc7eac63f475e68d964f5e8",
        "gen.rpt": "79292533d987057491406c18e135bac9bb32418fd363a44ca7bf7006b714f62f",
        "cert.rpt": "730430ff3c26beed8c41527a1efc5627ad5196db578294ae56f35585eb24744a",
        "bits": "4ee5c8175da5988998712498ef87135995b93a3fa85755c19f182f8706b66f2e",
        "ext.rpt": "54a9032429d3793369c49d1f2b67b148da1b33f9154ad18f2836ffbc291fc728",
        "stat.rpt": "71b0c2de757ca18aa5e27932316ff2eadea6fb3fbd470e740705d1f4aaa781c9",
        "ss.rpt": "4ad616def6b35a0ead646455a398e5498fc241fada5b421191ab849e39ffe46c",
        "ss-10000.rpt": "3bd9281487436ec2be218450f296dff8b4afd4505abb4c68c39f56ffb4398e0c",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, mode", DIGESTS, ids=[f"{c}-{m}" for c, m in DIGESTS])
def test_output_digests(tmp_path, config, mode, workers):
    assert output_digests(tmp_path, config, mode == "ideal", workers) == DIGESTS[config, mode]
