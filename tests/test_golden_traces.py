"""Golden trace digests: the engines' traces must stay byte-identical.

Each entry is the SHA-256 of ``outcome.trace.to_jsonl()`` for one family,
engine, minimum angle and diametral-circle mode, with the insertion budget
capped at 2000.  A refactor of the engines or of the triangulation that is
meant to change no behaviour must leave every digest unchanged; a change
that alters behaviour on purpose re-records the table and says why.
"""

import functools
import hashlib

import pytest

from refinelab import generators
from refinelab.refine import RefinementConfig, chew2, ruppert

FAMILIES = {
    "pav(0)": lambda: generators.pav(0.0),
    "pav(1e-3)": lambda: generators.pav(1e-3),
    "pinwheel3": lambda: generators.pinwheel(3),
    "pinwheel4": lambda: generators.pinwheel(4),
    "pinwheel5": lambda: generators.pinwheel(5),
    "example2": lambda: generators.example2(),
    "example2-opt(1e-3)": lambda: generators.example2_optimized(1e-3),
}

ENGINES = {"ruppert": ruppert, "chew2": chew2}

# (family, engine, alpha_deg, closed_diametral) -> trace digest
GOLDEN = {
    ("pav(0)", "ruppert", 20, False):
        "4f65c4a147eb1c103b8157b874d807e8adbfba1136cf08113ab973360bfa031f",
    ("pav(0)", "ruppert", 20, True):
        "4f65c4a147eb1c103b8157b874d807e8adbfba1136cf08113ab973360bfa031f",
    ("pav(0)", "ruppert", 25, False):
        "370b9b74a6b0f535fd4ab3810f97348497cb507fb66334030f1943254a975fa5",
    ("pav(0)", "ruppert", 25, True):
        "370b9b74a6b0f535fd4ab3810f97348497cb507fb66334030f1943254a975fa5",
    ("pav(0)", "ruppert", 29, False):
        "3881e1d6b1ea87e321067a64694e020ef1b8fa23c3580f52cdb6a661be895ccb",
    ("pav(0)", "ruppert", 29, True):
        "3881e1d6b1ea87e321067a64694e020ef1b8fa23c3580f52cdb6a661be895ccb",
    ("pav(0)", "ruppert", 31, False):
        "ebe2deae000e46e63eec601ca70dd69da80d416719f04f648f84c537d96d8fd3",
    ("pav(0)", "ruppert", 31, True):
        "aa9a1b82957146c13a064e2760a04e26d4c9e26d6aac15104b4babb123077fe0",
    ("pav(0)", "ruppert", 34, False):
        "69906456171d2d4f9c8ddfb3542d9636687b349afa9faffe1b98ad64a269c44a",
    ("pav(0)", "ruppert", 34, True):
        "aa9a1b82957146c13a064e2760a04e26d4c9e26d6aac15104b4babb123077fe0",
    ("pav(0)", "chew2", 20, False):
        "6ce99128260748619ada05f03a7d4b4f34ca11b4379d73de634278963b63785e",
    ("pav(0)", "chew2", 20, True):
        "6ce99128260748619ada05f03a7d4b4f34ca11b4379d73de634278963b63785e",
    ("pav(0)", "chew2", 25, False):
        "ad1df95c2e61ac395a05cc1eeba28510e4ff48ce03063c953555c28a183eff44",
    ("pav(0)", "chew2", 25, True):
        "ad1df95c2e61ac395a05cc1eeba28510e4ff48ce03063c953555c28a183eff44",
    ("pav(0)", "chew2", 29, False):
        "e315996f8744cceadb6d85500c90a531c380dba1da71f5fe1e47c61660d4c01a",
    ("pav(0)", "chew2", 29, True):
        "e315996f8744cceadb6d85500c90a531c380dba1da71f5fe1e47c61660d4c01a",
    ("pav(0)", "chew2", 31, False):
        "44c1b8dfe5b11b66d2e5071c7cce083465f6a596b84e9f4a05b1cd1613b2d07b",
    ("pav(0)", "chew2", 31, True):
        "44c1b8dfe5b11b66d2e5071c7cce083465f6a596b84e9f4a05b1cd1613b2d07b",
    ("pav(0)", "chew2", 34, False):
        "19e95bcbdfb04a74d223a006a2ae9cb114ea13b1565f03129d84452e7cfc22f2",
    ("pav(0)", "chew2", 34, True):
        "19e95bcbdfb04a74d223a006a2ae9cb114ea13b1565f03129d84452e7cfc22f2",
    ("pav(1e-3)", "ruppert", 20, False):
        "930fe90aed241801e48370fe699c71ae60ef7e8e11dc32f506ae728a3e5f2c1c",
    ("pav(1e-3)", "ruppert", 25, False):
        "cd0cfe178a1393cc4488d47d0e4d340df3521deef77b3510a4fa65f76a3a451c",
    ("pav(1e-3)", "ruppert", 29, False):
        "4f973b69eaf8114bcb29381a04c98aab76cfce7de358ac68f1dad53ae49d8cc3",
    ("pav(1e-3)", "ruppert", 31, False):
        "4def9ff1a9d031edab0cbcf6d3ec5ec6d90a5362ffd6267d53432326c64a5216",
    ("pav(1e-3)", "ruppert", 34, False):
        "4def9ff1a9d031edab0cbcf6d3ec5ec6d90a5362ffd6267d53432326c64a5216",
    ("pav(1e-3)", "chew2", 20, False):
        "ac80c5d0c002f1bb23a18049f425ef7c0ffaaa15ffc91dc303e80e13ba7b3c60",
    ("pav(1e-3)", "chew2", 25, False):
        "928e253a12c482c7e30defa90aadb645b1379962786353258c1bbd2f7e39a815",
    ("pav(1e-3)", "chew2", 29, False):
        "668127d504a86d4166fc3318a150850516957e92f2c5e213a07d4dbb4671a98a",
    ("pav(1e-3)", "chew2", 31, False):
        "a19c82e751eae5560f81140555e170130f0362b128e172ac818deaa14993d6d5",
    ("pav(1e-3)", "chew2", 34, False):
        "d0f10325f2418d0a8194718b4d357dbc5c36e725c161046183955cafb6d70d6b",
    ("pinwheel3", "ruppert", 20, False):
        "1c29fbc3fd93da2b8e233d10be966d8b7cbb05042f4549b2e39275590e14e45d",
    ("pinwheel3", "ruppert", 25, False):
        "a664f92d45b5f003a5ed11b7ff096bfa886cacd0741b6bc016093ea1c4cd5c8f",
    ("pinwheel3", "ruppert", 29, False):
        "1d3944f27b15891a9c3a7c91336ac618e2ffb29c8049a6bb8ede6a88bac38b9e",
    ("pinwheel3", "ruppert", 31, False):
        "1d3944f27b15891a9c3a7c91336ac618e2ffb29c8049a6bb8ede6a88bac38b9e",
    ("pinwheel3", "ruppert", 34, False):
        "6b0287a4177f84cc29b5d38bb5eb22b4f2a8a637609b11d2850ac80589495832",
    ("pinwheel3", "chew2", 20, False):
        "1be5c67908ffa06cbf7b03d4e1aa478dee94a749e9207e26a50981828bfbd94f",
    ("pinwheel3", "chew2", 25, False):
        "90e9b032d0ec5afd0f0a9610f72a590416b1520275950e250a7da734807816d8",
    ("pinwheel3", "chew2", 29, False):
        "eee7308da430e7516e9cbbeb9fde396b6bb6f186a964c881d873db6806bd2715",
    ("pinwheel3", "chew2", 31, False):
        "eee7308da430e7516e9cbbeb9fde396b6bb6f186a964c881d873db6806bd2715",
    ("pinwheel3", "chew2", 34, False):
        "0ffeea4ec8dd6cbbc8265b152c8305ad3f59b50bfa679a63b9eb590a4ff83e68",
    ("pinwheel4", "ruppert", 20, False):
        "18e5c686704c3fff0a231a35ab10d19e64d796de2f05aee8470769061150e66e",
    ("pinwheel4", "ruppert", 25, False):
        "18e5c686704c3fff0a231a35ab10d19e64d796de2f05aee8470769061150e66e",
    ("pinwheel4", "ruppert", 29, False):
        "aa19ab9243da126d31cd75c14d8ae1a24c3aad0b3c305f0dcae9eece7c423700",
    ("pinwheel4", "ruppert", 31, False):
        "0349bb32c0682ad5943a425b56681fa916d188372e00ff55c823cb0ae62ad4e6",
    ("pinwheel4", "ruppert", 34, False):
        "0349bb32c0682ad5943a425b56681fa916d188372e00ff55c823cb0ae62ad4e6",
    ("pinwheel4", "chew2", 20, False):
        "fdaea1b0540f63ef890fd54206f70f10d81405c0f0a7f26856c0524e9451e8e5",
    ("pinwheel4", "chew2", 25, False):
        "a5e423c038d773e9b6d76d15b59bf1b74e7112644a41c10a5a1baf303948fc23",
    ("pinwheel4", "chew2", 29, False):
        "e2bc354d41daaca7a4fafe375d7c4b450a09b536b54730f9831ef96cc8756266",
    ("pinwheel4", "chew2", 31, False):
        "5be3eed1b9a1f1fab9880c99c45f9e4808c7ca169f5d66cc054d738d54314a68",
    ("pinwheel4", "chew2", 34, False):
        "5be3eed1b9a1f1fab9880c99c45f9e4808c7ca169f5d66cc054d738d54314a68",
    ("pinwheel5", "ruppert", 20, False):
        "b11349d016cedbaa59d8d9333e8c7c7f36ea578527c89e849a3bd2eb34d195a6",
    ("pinwheel5", "ruppert", 25, False):
        "39ca1ef55bd686f96726710cb690dfc588d3cffda06acfb0a5b56384acb66453",
    ("pinwheel5", "ruppert", 29, False):
        "99762ba504a61f8da7d64e53b2179040d8c617039f0a8d5ee143f2310ba4e6c1",
    ("pinwheel5", "ruppert", 31, False):
        "dbee30a631081ce207c87281b98042be62ab1bc2ee71d9babe33e1ac00464059",
    ("pinwheel5", "ruppert", 34, False):
        "63a98e651f8ca35845a3a8d90ddafb06e26cd04370587b8c57375ee50e377749",
    ("pinwheel5", "chew2", 20, False):
        "02c36a2a21ed4622bb163cb3caa4a92db402881ab98a1c4eb10bb67e91c560b9",
    ("pinwheel5", "chew2", 25, False):
        "65ab28749c3ec5811884d38a7695d6a1cb56fdcb38d75d3b4397164e77528237",
    ("pinwheel5", "chew2", 29, False):
        "6fdb3b52374fd708b5bc785ee454e42ba5e2943b515ace0658dd0400ab0a6cbf",
    ("pinwheel5", "chew2", 31, False):
        "9f28a087a90539268462d193aa1a8be1e15eeefd2561ea5c1c3800055130551a",
    ("pinwheel5", "chew2", 34, False):
        "68469c3e16a04fcf56e12742966b6d819604d054423fcf072de8741a0aa8852c",
    ("example2", "ruppert", 20, False):
        "88ca19864f5bac1887d2fa92d9249fad4df32fdfe26a303715e4d17855bf444d",
    ("example2", "ruppert", 25, False):
        "1d96d6246b34cfb31022dd5cff6b0fb310e702f301413ab81dc414bbbd9efddc",
    ("example2", "ruppert", 29, False):
        "3b39077fc7543ff9608a7a3fb46f0b8cced223f700a91bcb57d4be83b75addd0",
    ("example2", "ruppert", 31, False):
        "b6af19c7ddfdfcc27b7d01522fad269ed2159da4b57753b936a7b47e7f4a548b",
    ("example2", "ruppert", 34, False):
        "85f37949bdf674eed08403de4edadbf1ea1e25f025b630c0c28997182cc62a10",
    ("example2", "chew2", 20, False):
        "31673e34361527b9da87bc8d9efdbde841f98569f9368e5d8006dd57a53a5300",
    ("example2", "chew2", 25, False):
        "ede7b37fe090408b0c0b041a2902d86bbeddbe4d36088a7facb8d36480333642",
    ("example2", "chew2", 29, False):
        "14c68436e5e50fb6a8b4f52ae8ec89b853ea56fc84f129068d2a1c36c93c88ed",
    ("example2", "chew2", 31, False):
        "c8cd0ef5bbaa2d580ff8a8046fa29f2e64d0ccfab44274e5b9bab66be8331bf8",
    ("example2", "chew2", 34, False):
        "76451afe61c45f8cb6c62343f9425d70d325f830e6acd09a90e1507a08bb1cf4",
    ("example2-opt(1e-3)", "ruppert", 20, False):
        "b8bb337792c7a692ec998ea5afc4c5b3278e94e73d993e0320ddeeb6f1a420c8",
    ("example2-opt(1e-3)", "ruppert", 25, False):
        "fde3a66c95d7bbf617f2cb05c3c9b7bd8882508a3ef74dc5d482d3684a4a99ad",
    ("example2-opt(1e-3)", "ruppert", 29, False):
        "0d98559ed52aa3ac4c961a256599122cbf0f2df60bb9e79ae318293c0862afd2",
    ("example2-opt(1e-3)", "ruppert", 31, False):
        "912fa8331cd876c203c87aa318368020fcc7a32a21125d3d7e2f01ae2c23c7c8",
    ("example2-opt(1e-3)", "ruppert", 34, False):
        "912fa8331cd876c203c87aa318368020fcc7a32a21125d3d7e2f01ae2c23c7c8",
    ("example2-opt(1e-3)", "chew2", 20, False):
        "08029b84a5bff94c9536df57257b37f2ff9f65d8df1ff17c0a60c60189fd0e85",
    ("example2-opt(1e-3)", "chew2", 25, False):
        "cb7992df4f675a8c99fa4a82d28c0b94bb1e6c21e9cc81d777f3f35a7d25130d",
    ("example2-opt(1e-3)", "chew2", 29, False):
        "c6133ffbd9364d6d110fa7dfc4dc8d4b65465cfb8aeeba31c85e114b7b505f0e",
    ("example2-opt(1e-3)", "chew2", 31, False):
        "438f2dcb7d52a280f9a63be024180dd8660496f5a1aec9bf61289e5ba9d5669f",
    ("example2-opt(1e-3)", "chew2", 34, False):
        "82d0275db160214a763467e564c68649ae0d4f373fc83c83ffab19842d98d953",
}


@functools.lru_cache(maxsize=None)
def _pslg(family):
    return FAMILIES[family]()


def test_grid_is_complete():
    open_runs = {
        (f, e, a, False) for f in FAMILIES for e in ENGINES
        for a in (20, 25, 29, 31, 34)
    }
    closed_runs = {
        ("pav(0)", e, a, True) for e in ENGINES for a in (20, 25, 29, 31, 34)
    }
    assert set(GOLDEN) == open_runs | closed_runs


@pytest.mark.parametrize("family,engine,alpha,closed", sorted(GOLDEN))
def test_trace_digest(family, engine, alpha, closed):
    cfg = RefinementConfig(
        alpha_deg=alpha, max_insertions=2000, closed_diametral=closed
    )
    outcome = ENGINES[engine](_pslg(family), cfg)
    digest = hashlib.sha256(outcome.trace.to_jsonl().encode()).hexdigest()
    assert digest == GOLDEN[(family, engine, alpha, closed)]
