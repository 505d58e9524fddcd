"""Bitwise digest of two short training runs against committed values.

Trains seed 1 for 10 updates twice (adaptive c2=0.8, standard c2=0.3) and
compares, per update, the SHA-256 of the record's float reprs, then the
SHA-256 of the final parameters. A failure names the first update whose
record differs, so a refactor that changes any bit of training shows where.

To re-record, run this file as a script and paste its output over
EXPECTED:

    PYTHONPATH=src python tests/test_digest.py

Re-recording is a change in behaviour: name it in CHANGES.md.
"""

import hashlib

import numpy as np

from axppo.train import TrainConfig, UpdateRecord, train

RUNS = {
    "adaptive-0.8": TrainConfig(mode="adaptive", c2_base=0.8, total_env_steps=2560, seed=1),
    "standard-0.3": TrainConfig(mode="standard", c2_base=0.3, total_env_steps=2560, seed=1),
}

EXPECTED = {
    "adaptive-0.8": {
        "records": [
            "9d32a73d9ba837a9e466e7f00816902056f443ca6f7380f760e4ed0ebad98353",
            "9e0808767d7688013bc8c8963f09eae82e4050f89675566a7cb7604252c72e8d",
            "4e21243639857ab3d2b3c3953eb67a7c054fc07c0a89f78eee693bae8334ae3e",
            "233971a3547f685840e3d700df7c0d261b51a1405ff70f38fd4f61432897eba2",
            "6fdca6cafe852d8b9d03feadee7bdb0faf8d3e81ec632b34363f7e0b638ddd54",
            "0526519f414cea2853f5928f3dc8adc7523bd6e4420a3161331035d31aa1581b",
            "0ac3eb4bc59f47b7d45d62500cbbb4729bcf1c72a9b821254fd60972f9a0f1e1",
            "2ede5561bca70ac627a26c8b453a4859f7bfd9ff052b6b2f35704d5b74875599",
            "88a1c5efe5bdcc4f311a7969e34cd9c66dcc00da823e351ff88df7d8ee7e3182",
            "c495878b99e6bbb8081851e9334b25b2289f94d376cacd5e28e6442745edc76f",
        ],
        "params": "97514482ca83644734b61c90f2e63feb5235994510f2b230b3cb2282ca67a543",
    },
    "standard-0.3": {
        "records": [
            "7d490dfdecc67de8e754ec83317199433867c7e45339bd42b2b211ffe0586850",
            "a5507168bd0e138b1923c13f2812912973bc2a61931c2b5f6cdf3c97909ee345",
            "3e3736cd0f769a2bcc9eba4143978e83dbfd7d8ee8c36520e9ccf48b584d3d95",
            "8770e88d4386caf076d4160378a4a7be7b7619c148cbfba9980467673130beab",
            "5befcda671fd59e5214ab68b633f2de8c7dd16d635d74c529ee6117d785c6517",
            "bc49cb43ae623ff01328df6c179eac01838773aa28a360df6d3dff7230c708cd",
            "af925fb45a1d1e1f5eed82dc1739d7392b57b48c94697dd226ed5d1c4e38cc74",
            "05a6ba20f4444983041578405208bfa751942052a7990390813dc4a6afd39855",
            "dec8e5dd3199951d03555d360e28bca2fac9bb8b1ace1ab026c6ac8b8da8a1eb",
            "6a4baba712aa78cac4cccf0cb75490562188a810487c49771d05baa30c594752",
        ],
        "params": "a1b0f350770e1d274c5bfd102ca12de798bc3017103ac36bd1f566a3b548a0dc",
    },
}


def record_digest(r: UpdateRecord) -> str:
    floats = (
        r.batch_mean_return, r.g_recent, r.c2_effective,
        r.loss.clip_term, r.loss.value_term, r.loss.entropy_term, r.loss.total,
    )
    text = f"{r.update_index},{r.env_steps_so_far}," + ",".join(repr(float(v)) for v in floats)
    return hashlib.sha256(text.encode()).hexdigest()


def params_digest(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def digests(config: TrainConfig) -> dict:
    result = train(config)
    assert not result.diverged, result.error
    return {
        "records": [record_digest(r) for r in result.records],
        "params": params_digest(result.params),
    }


def test_training_matches_recorded_digests():
    for name, config in RUNS.items():
        got, want = digests(config), EXPECTED[name]
        assert len(got["records"]) == len(want["records"]) == 10
        for i, (g, w) in enumerate(zip(got["records"], want["records"])):
            assert g == w, f"{name}: update {i} is the first record that differs"
        assert got["params"] == want["params"], f"{name}: final parameters differ"


if __name__ == "__main__":
    print("EXPECTED = {")
    for name, config in RUNS.items():
        d = digests(config)
        print(f'    "{name}": {{')
        print('        "records": [')
        for h in d["records"]:
            print(f'            "{h}",')
        print("        ],")
        print(f'        "params": "{d["params"]}",')
        print("    },")
    print("}")
