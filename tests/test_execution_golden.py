"""Golden digests of the executor's output on every program.

``PlanExecutor`` turns a plan into simulated time, byte counts, fault
logs and migration events, and everything the repo reports downstream
reads that result.  Restructuring the executor must leave every run
bit-identical, so four kinds of run per program at scale 2^-6 are
pinned by the SHA-256 of their canonical JSON:

* ``greedy``: a plain Algorithm-1 run's ``result``;
* ``search``: a ``plan_mode="search"`` run's search report (minus its
  wall-clock seconds) and result, which exercises the per-line steps
  plan search drives on its speculative machine;
* ``fig5``: a migration run whose device drops to 10% availability
  at half the offloaded progress (the paper's Figure 5 stress);
* ``sdc0``..``sdc2``: silent-corruption chaos plans for seeds 0-2 with
  the integrity layer on, which drive chunk replays and host
  fallbacks.

The digests were recorded before the executor's ``execute`` loop was
split into per-line steps, which must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.chaos.campaign import CampaignConfig, ChaosHarness
from repro.config import DEFAULT_CONFIG
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.profcache import ProfileCache
from repro.workloads import get_workload, workload_names

SCALE = 2.0**-6
SDC_SEEDS = (0, 1, 2)
SDC_CONFIG = replace(DEFAULT_CONFIG, integrity_enabled=True)

GOLDEN = {
    "blackscholes": {
        "greedy": "f5dde2fc53828543d774cdf258f2284ef52b2ab8a8fcf0d1855da99839bab0ea",
        "search": "df6eb5ea0fc94d6458e95fcd1803cbb9d17934b0c0576473870ce4e88865780e",
        "fig5": "95aff4c1df31b449962ed5addc41a2de1821ff0e23b43eb8c6ea05b402174f22",
        "sdc0": "c67de1ab3f477653a2220beb7a2ba97c5c53522fc6ff79246deed82274bcae90",
        "sdc1": "ff17fd2b66fda4de46a2e362e2b934a085a6c1618f93aebe5ffd6c78599b6440",
        "sdc2": "ee6b05cd7383911d236d7ba55dc73c82375b56f67759aaad6e13effe775444d8",
    },
    "kmeans": {
        "greedy": "aa08594eadef567d70d045c59744f5bd2fcc4511236aab338592551fa29e3fe9",
        "search": "88c0dfb6495887870c5554f4f12e8b04a72373fddbf27453d73b3b54f2ab145e",
        "fig5": "7122457134da1a0ab0e84e9caf5d3025688591444ffa59f19600e4360a7c9ec2",
        "sdc0": "3fd578d5df65719146c129f240a5003380e28631182e4ff732e99107fbc9a5c0",
        "sdc1": "4c6b2b24f6a603eda37f0428ca6b0145009413a7058cee6545321e880ca91dab",
        "sdc2": "8c558855d2dafc9cd4ad5d3260dea3ceb87432c8fabe44de750f1d2613454b20",
    },
    "lightgbm": {
        "greedy": "6b6e269a2c1ec2cb29cbbec592e68610bcf708298ae8f67ef3067c8fc5ae9498",
        "search": "a5cf852acec84ad9f8e8faa648865762e252b9df9c320d2677aa35405632b2b3",
        "fig5": "0ee064763d2239bfa210d86eecc067858171115cc70e482138b26581d6ce0cad",
        "sdc0": "06403bcd466d6d79f5b7371417d62f7be2b82046561b597dd8df3a06ef9c968b",
        "sdc1": "e799620cd6c89eab450c0e1c88fb31b9c492384ad6167bcd6ea960776b408add",
        "sdc2": "79cfd2503c27c375a5004f38b3b4c622f332431a7760aa69d8008487ad57bd3c",
    },
    "matrixmul": {
        "greedy": "1184b40d41dde8b9c3037aaa66e4e9064178398d9589484c531dd4e8fd51bb38",
        "search": "99e8a796ed178ba11e0ecf9a1b4184ddabb7a5a15a5a6cf8c4704581573f2eb1",
        "fig5": "6552c36321e0d1e94756367649d81d1d48e7f881f8ddeae708f8657cb2d74524",
        "sdc0": "390fbd0e29875cd097cbc92766c8272cb112a18ea42ed70879444b894abacbc5",
        "sdc1": "aa944a2d866ec18f0b5cb47b2235de62427c9ac15aca3aef280fddbc13a36a51",
        "sdc2": "5bf5b1fd935c56b611a56858885b6f4738b2f02b50f9c3d60deb5cf791ca4cab",
    },
    "mixedgemm": {
        "greedy": "4929ce8dbc15e948613066267d52266c356f5a49eddb5c2f1c905371e5b3e954",
        "search": "4efa785f29970718ef0a096367c49d2c8245189e5beae18bb2585356258fac79",
        "fig5": "5a1f7892389701a2e7d347ffe1354a551f867bc7bc987c404830fa10bdc7f48e",
        "sdc0": "c38b9ec7cb23a7d3385546b5aeb104cfe9a72ac716c902a08905c8c7fae80935",
        "sdc1": "f81cdd43dc31d0c87380bcdbb3b008d9fa735e51dfb32dc0e86819b90e2e6e13",
        "sdc2": "88f764a650a519edbb072a053cd10445feb0c41cc678f52055a292a3514fbb28",
    },
    "pagerank": {
        "greedy": "204ecd830b256c9a2d414c19283660e691f89c5b56cfa5004e1dafef91a0b981",
        "search": "db906b6ceddbab0e2ee09b05984b4c1a78ece0544fcfe1d4447485dc29d2ae55",
        "fig5": "53ebd69253c6ec582781bb9c73aa5e7eaa1bff846c13fd209d52ec1610673b20",
        "sdc0": "176ccd00f5b808b39e64354aa474d31f79f6b5383c2daa6d3e082312702d16e1",
        "sdc1": "3d816c8ef7349020478bbc73e6c5ac093f8d56203c335ce7da08f90f968801fd",
        "sdc2": "6aa45e47cdec16971d185e76371d91a013a534be32c8c538074d557968501d18",
    },
    "sparsemv": {
        "greedy": "fe391168a11e96784c29d721cccbcae6e20a9e5d4c61c7e733f8991a6428dd7f",
        "search": "ccfbad1499c6aa060c5a80043d6105fd2546406c9e14e2efb9b0cccfb665c26b",
        "fig5": "13616bb6f70d43512a18ca542bcabe9e402beaac40b079629e42d9035a950615",
        "sdc0": "5df9b7fad2d05499fbe21c9443c1494596e0e9f31a2d88da9168a948a3c3f6dd",
        "sdc1": "ab9779bb79d91bedba04a562cab929ea310f1a080bbfe0236c49c01904937cc1",
        "sdc2": "8a961779e7b65069f87c651bd0a4b06896143ab132c08d46b4dd1bff3f984ca6",
    },
    "tpch_q1": {
        "greedy": "7a9a009f785336539ba667e5918859cb0c9324288513a84b537ef9aee1f90661",
        "search": "a68f5474630a36dedd3974f0f197c9181d34a9df1838a5eddff5f165e9ea639b",
        "fig5": "5b41fec3b995395ae6a5c0859a0776ee4522dcd3e8b30d3b229e423540cb6fce",
        "sdc0": "a4278c4856af2de4c42c304092086dd88537851139461364b020467b910973fb",
        "sdc1": "5abf3a94f00f58b99415d208c2c217940bceb56da8aa44c1d2e71fc66d44b370",
        "sdc2": "414add31902e0c25f00a4e9b92e72241346173379e00a11e498b10e379b6709f",
    },
    "tpch_q14": {
        "greedy": "39add148db38ef4c07c4249dd1279796676ca5d04d479ce8125875e5cef83eed",
        "search": "871eb122c3b79201e39ec19198a6ced696a359495befe58fad33fc179855c3d7",
        "fig5": "3acfc1cc11e9eaa7c281bc7e06f7f8b74d0e8f975f83aa3d2e69c6c229afc1d5",
        "sdc0": "aaa33e4d37fd00461444a967e0055b9682ca54d8296b07873a25ad752ae5a982",
        "sdc1": "157787ca743c102cbb7e50d9cd5b98b6f3916540a9d90b90929d1e67990d94c4",
        "sdc2": "e08f42813afdd969302c4082c3dd2be55b220b4ad067d82bda681742a1133f73",
    },
    "tpch_q6": {
        "greedy": "b37108be0cc571e4b144404b76f6331c8d36fc6f8feaaf2cd73ae6df021b9dc7",
        "search": "c19ae8bf489f753e15c938e7ec73fb5b0b35b2dc61d114ddff8caec40902480a",
        "fig5": "244bdd85cd7bceb658ee5ab3b1cc86eba62ffe5625d8f9f031410c2bcf026c9a",
        "sdc0": "dbf2d7cd92d277f78cc7e5bfb9339d4702f892f94a5cb7cb7044817d4f286615",
        "sdc1": "963c4a73644f118c9132bf802c5c810b76c3d6d8b626f802ccb8c79e5eaca4b0",
        "sdc2": "8415471c6891811f451ab3e9ad9210ce056f3841a9a0bd148ba949f0869face4",
    },
}


def canonical_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One profile cache per module, so each program samples once."""
    return ProfileCache(tmp_path_factory.mktemp("golden-cache"))


@pytest.fixture(scope="module")
def harness():
    return ChaosHarness(CampaignConfig(
        scale=SCALE, silent_corruption=True, collect_metrics=False,
        system_config=SDC_CONFIG,
    ))


def run_digest(kind: str, name: str, cache, harness) -> str:
    workload = get_workload(name, scale=SCALE)
    program, dataset = workload.program, workload.dataset
    if kind == "greedy":
        report = ActivePy(profile_cache=cache).run(program, dataset)
        return canonical_digest(report.result.to_jsonable())
    if kind == "search":
        report = ActivePy(profile_cache=cache).run(
            program, dataset, options=RunOptions(plan_mode="search"),
        )
        search = report.search.to_jsonable()
        del search["metrics"]["wall_seconds"]
        return canonical_digest({
            "search": search, "result": report.result.to_jsonable(),
        })
    if kind == "fig5":
        report = ActivePy(profile_cache=cache).run(
            program, dataset,
            options=RunOptions(progress_triggers=((0.5, 0.1),)),
        )
        return canonical_digest(report.result.to_jsonable())
    seed = int(kind[len("sdc"):])
    plan = harness.plan_for(name, seed)
    report = ActivePy(SDC_CONFIG, profile_cache=cache).run(
        program, dataset, options=RunOptions(fault_plan=plan),
    )
    return canonical_digest(report.result.to_jsonable())


KINDS = ("greedy", "search", "fig5") + tuple(f"sdc{seed}" for seed in SDC_SEEDS)


def test_every_program_is_pinned():
    assert sorted(GOLDEN) == sorted(workload_names())
    for name, digests in GOLDEN.items():
        assert sorted(digests) == sorted(KINDS), name


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_execution_is_bit_identical(name, cache, harness):
    got = {kind: run_digest(kind, name, cache, harness) for kind in KINDS}
    assert got == GOLDEN[name]
