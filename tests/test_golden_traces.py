"""Golden digests: the engines' traces and the meshes must stay byte-identical.

Each ``GOLDEN`` entry is the SHA-256 of what ``outcome.trace.to_jsonl``
writes for one family, engine, minimum angle and diametral-circle mode,
with the insertion budget capped at 2000.  Each ``GOLDEN_MESH`` entry is the SHA-256
of the points, the triangles with their ids and the subsegments of one
triangulation: ``Triangulation.build`` on inputs with a hole and with
constraints that must be routed through the mesh, and the final meshes of
both engines.  The traces pin neither hole carving, constraint routing nor
triangle ids.  A refactor of the engines or of the triangulation that is
meant to change no behaviour must leave every digest unchanged; a change
that alters behaviour on purpose re-records the table and says why.
Each ``GOLDEN`` run is also rerun with a ``CascadeChecker`` stop hook, as
a scan probe is, to show that stopping at the first DIVERGING verdict
keeps the verdict of the full run.
"""

import functools
import hashlib
import math
import random

import pytest

from refinelab import generators
from refinelab.analysis import CascadeChecker, classify
from refinelab.cdt import Triangulation
from refinelab.geom import Point
from refinelab.pslg import Pslg, Segment
from refinelab.refine import STOPPED, RefinementConfig, chew2, ruppert
from oracles import written

def _wedge(deg):
    """Two unit segments from the origin meeting at ``deg`` degrees,
    enclosed.  Unlike the other families its input angle is below 60
    degrees, so a split midpoint encroaches a subsegment that is already
    queued."""
    t = math.radians(deg)
    return generators.enclose(Pslg(
        (Point(0.0, 0.0), Point(1.0, 0.0), Point(math.cos(t), math.sin(t))),
        (Segment(0, 1), Segment(0, 2)),
    ))


FAMILIES = {
    "pav(0)": lambda: generators.pav(0.0),
    "pav(1e-3)": lambda: generators.pav(1e-3),
    "pinwheel3": lambda: generators.pinwheel(3),
    "pinwheel4": lambda: generators.pinwheel(4),
    "pinwheel5": lambda: generators.pinwheel(5),
    "example2": lambda: generators.example2(),
    "example2-opt(1e-3)": lambda: generators.example2_optimized(1e-3),
    "wedge(20)": lambda: _wedge(20),
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
    ("wedge(20)", "ruppert", 20, False):
        "7c35c4d1c445c0a47425db092378de1fb8b8467dab01fd81d2ce48f9fba25668",
    ("wedge(20)", "ruppert", 25, False):
        "6c9b1c5f12e0a256c22901af49e9df645023b868d5ac8decd4620c6b6c7aa7eb",
    ("wedge(20)", "ruppert", 29, False):
        "6c9b1c5f12e0a256c22901af49e9df645023b868d5ac8decd4620c6b6c7aa7eb",
    ("wedge(20)", "ruppert", 31, False):
        "6c9b1c5f12e0a256c22901af49e9df645023b868d5ac8decd4620c6b6c7aa7eb",
    ("wedge(20)", "ruppert", 34, False):
        "6c9b1c5f12e0a256c22901af49e9df645023b868d5ac8decd4620c6b6c7aa7eb",
    ("wedge(20)", "chew2", 20, False):
        "8e12d3875136cb08a6a19546b4fce731ad76a0520a54442d037fef5048a85751",
    ("wedge(20)", "chew2", 25, False):
        "120f1bcc2ec02ecb6173718ad8323b26ad09c68a73bc10483be9cb8c244e6f60",
    ("wedge(20)", "chew2", 29, False):
        "120f1bcc2ec02ecb6173718ad8323b26ad09c68a73bc10483be9cb8c244e6f60",
    ("wedge(20)", "chew2", 31, False):
        "120f1bcc2ec02ecb6173718ad8323b26ad09c68a73bc10483be9cb8c244e6f60",
    ("wedge(20)", "chew2", 34, False):
        "120f1bcc2ec02ecb6173718ad8323b26ad09c68a73bc10483be9cb8c244e6f60",
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
    digest = hashlib.sha256(written(outcome.trace.to_jsonl).encode()).hexdigest()
    assert digest == GOLDEN[(family, engine, alpha, closed)]


@pytest.mark.parametrize("family,engine,alpha,closed", sorted(GOLDEN))
def test_stopped_run_keeps_the_verdict(family, engine, alpha, closed):
    cfg = RefinementConfig(
        alpha_deg=alpha, max_insertions=2000, closed_diametral=closed
    )
    full = ENGINES[engine](_pslg(family), cfg)
    stopped = ENGINES[engine](_pslg(family), cfg, stop=CascadeChecker().feed)
    text, prefix = written(full.trace.to_jsonl), written(stopped.trace.to_jsonl)
    assert text.startswith(prefix)
    if stopped.status != STOPPED:
        assert prefix == text
    assert classify(stopped) == classify(full)


_SQUARE = (Segment(0, 1), Segment(1, 2), Segment(2, 3), Segment(3, 0))


def _hole_input():
    return Pslg(
        vertices=(
            Point(0, 0), Point(6, 0), Point(6, 6), Point(0, 6),
            Point(2, 2), Point(4, 2), Point(4, 4), Point(2, 4),
        ),
        segments=_SQUARE + (
            Segment(4, 5), Segment(5, 6), Segment(6, 7), Segment(7, 4),
        ),
        holes=(Point(3, 3),),
    )


def _crossing_input():
    # the segment 4-5 is not an edge of the Delaunay triangulation
    return Pslg(
        vertices=(
            Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4),
            Point(0.5, 2.0), Point(3.5, 2.0), Point(2.0, 2.3), Point(2.0, 1.7),
        ),
        segments=_SQUARE + (Segment(4, 5),),
    )


def _square_input(seed):
    """The 4x4 square, 4-8 free vertices and one segment between the
    first two; seeds 0, 1, 3, 6, 7, 9, 11 and 18 give a segment that is
    not a Delaunay edge and has to be routed through the mesh."""
    rng = random.Random(seed)
    pts = [Point(0.0, 0.0), Point(4.0, 0.0), Point(4.0, 4.0), Point(0.0, 4.0)]
    n = rng.randint(4, 8)
    while len(pts) < 4 + n:
        p = Point(round(rng.uniform(0.25, 3.75), 2),
                  round(rng.uniform(0.25, 3.75), 2))
        if p not in pts:
            pts.append(p)
    return Pslg(tuple(pts), _SQUARE + (Segment(4, 5),))


def _refined(engine, family):
    cfg = RefinementConfig(alpha_deg=25, max_insertions=2000)
    return ENGINES[engine](_pslg(family), cfg).triangulation


def _built(make, *args):
    return Triangulation.build(make(*args))


MESHES = {
    "build:hole": functools.partial(_built, _hole_input),
    "build:crossing": functools.partial(_built, _crossing_input),
    **{
        f"build:square{seed}": functools.partial(_built, _square_input, seed)
        for seed in range(20)
    },
    **{
        f"{engine}:{family}@25": functools.partial(_refined, engine, family)
        for engine in ENGINES for family in ("pinwheel4", "pav(1e-3)")
    },
}

# mesh name -> digest of (points, triangles by id, subsegments)
GOLDEN_MESH = {
    "build:hole":
        "a32b08cb92228f139c81aa74dd8243d8024a636ea35d9a92b740ed536ff5f815",
    "build:crossing":
        "4f1b350a3d74f277d960763a54ebd54c3653f750328f6e4057dd24a628ba1a10",
    "build:square0":
        "db052c4c8953e8d2e52e6a160ae21839aa339e7884a1c2c6f4fadac9acdfae36",
    "build:square1":
        "d9850c52ff18761340257983b474c1498123a436122c4133ee8ce978d812aa2e",
    "build:square2":
        "df17069efd04c2748a7271f60b09490ce2daa7d3a98634bde89da1b50d8398ef",
    "build:square3":
        "91beacc2fdd3381a025b8fe5afea901791a1436f259a7499b9a663edb43a67f3",
    "build:square4":
        "be2679dc28cc76d8d2c36aa8e75862f689cf9c055d35554d6c4cead6016c6376",
    "build:square5":
        "30389025fa199326851ddf4c2ff38ab2ab3c0475d7cd72ac22c341a47729bd99",
    "build:square6":
        "df8fe2f0bd479f5893178d25dfadf9864e6c45f59e13c0e7178604521faf232c",
    "build:square7":
        "b28a5b10c637f47250b9388ca3fe87c5217eb70d4247808950eef7c9b75a90dc",
    "build:square8":
        "180e2d074731aa0874d21b93c83b93cec04edca1ba9aefcaab80d8723fb3a619",
    "build:square9":
        "f363284b7f272b3faf2ffbaaaf932d16d0fa1164cbb24449ae35dbd1a949ba4d",
    "build:square10":
        "b629730c025540e483ae0242ab5b7c252987fe832c1940f912a5fb3976f42b2a",
    "build:square11":
        "14874ea6826fa4e8f5bbe361ca3dd7f1e3f1d26f4c145af9026186b338a28a10",
    "build:square12":
        "4cf7fc5a028028c7ee6deaf7cb5bb08180862f3bb0d7d5095c169152fca0d63f",
    "build:square13":
        "3a4e3638501c3a08b253ab06014b648f9f91310666f8f1189432e02872cdfdcd",
    "build:square14":
        "24473646801fa83df249ce6d151ce1958229bd60711bd8684f91dd716f2e3716",
    "build:square15":
        "6b8a329c2ae5887252e45a9e1f6a0f89da46d21c4979eea1f5efe1f3a3a602a3",
    "build:square16":
        "e59d3dd9eed9a76fc8e94835af24cfcd86dcf1067a2bf5a7aa28c80f1d2391cd",
    "build:square17":
        "7760ca9f853f405163fa6fc3747069ef38923b3aa575155a58b56fc45a90278f",
    "build:square18":
        "a7e21f7ae70f08d207fbbfe4c8b4fb8e42c24d426e12126a2de32c7760e20512",
    "build:square19":
        "59797f0cfed40e693d31f01de61875a0ab66d27cd76e8dac52ff438f67b3dbb9",
    "ruppert:pinwheel4@25":
        "c57d0a4474c632b3ff3805963c61e3ee7dbe520682086b288b9eba65ff6d3771",
    "ruppert:pav(1e-3)@25":
        "3a2bc0f8f9ff141599ac8f14125b620b62a5d018053dac10c7ab24a4944b610e",
    "chew2:pinwheel4@25":
        "0cd99e894ebf65b44391fb869fab4a210ed13563b7ae9d9966c1ce465c04a3fe",
    "chew2:pav(1e-3)@25":
        "71614b9cfb863d785bf13125ae5f25ad05aec1531d2ddac82166ef87e040f3c7",
}


def _mesh_digest(tri):
    state = (
        tri.points,
        sorted(tri.triangles.items()),
        sorted(tri.subsegments.items()),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def test_mesh_table_is_complete():
    assert set(GOLDEN_MESH) == set(MESHES)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_mesh_digest(name):
    assert _mesh_digest(MESHES[name]()) == GOLDEN_MESH[name]
