"""Golden digests of the seeded link operators.

Each case runs one seeded operator on every platform class and hashes the
integer encoding of the designs it returns (placement plus link endpoints,
never objective values).  A change to a candidate pool's order or to the
order in which an operator draws from its RNG changes the designs, and with
them the digest — so these pins catch a reordered draw on the operator layer
itself, not only through a whole search's Pareto front.

Regenerate a digest only for a change that is meant to alter seeded
designs: ``PYTHONPATH=src python -m tests.noc.test_operator_golden`` prints
the table.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

import numpy as np
import pytest

from repro.noc.constraints import random_design, repair_links
from repro.noc.crossover import crossover
from repro.noc.design import NocDesign
from repro.noc.links import candidate_links
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.repair import RepairBudget, repair_design
from repro.workloads.registry import get_workload
from tests.noc.test_repair import corrupt

PLATFORMS: dict[str, Callable[[], PlatformConfig]] = {
    "tiny-2x2x2": PlatformConfig.tiny_2x2x2,
    "small-3x3x3": PlatformConfig.small_3x3x3,
    "paper-4x4x4": PlatformConfig.paper_4x4x4,
    "big-8x8x4": PlatformConfig.big_8x8x4,
}


def encode(design: NocDesign | None) -> bytes:
    """Integer encoding of one design: placement, then link endpoint pairs."""
    if design is None:
        return b"none"
    placement = np.asarray(design.placement, dtype=np.int64)
    ends = np.asarray([(link.a, link.b) for link in design.links], dtype=np.int64)
    return placement.tobytes() + b"|" + ends.tobytes()


def digest(designs: Iterable[NocDesign | None]) -> str:
    """sha256 over the length-prefixed encodings of a design sequence."""
    hasher = hashlib.sha256()
    for design in designs:
        blob = encode(design)
        hasher.update(len(blob).to_bytes(8, "big"))
        hasher.update(blob)
    return hasher.hexdigest()


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_designs_case(config: PlatformConfig) -> list[NocDesign]:
    return [random_design(config, _rng(seed)) for seed in range(10)]


def crossover_case(config: PlatformConfig) -> list[NocDesign]:
    parents = [random_design(config, _rng(100 + seed)) for seed in range(8)]
    return [
        crossover(parents[2 * i], parents[2 * i + 1], config, _rng(200 + i))
        for i in range(4)
    ]


def _corrupt_corpus(config: PlatformConfig, size: int) -> list[NocDesign]:
    return [
        corrupt(random_design(config, _rng(1000 + seed)), config, seed)
        for seed in range(size)
    ]


def repair_links_case(config: PlatformConfig) -> list[NocDesign]:
    return [
        repair_links(broken, config, _rng(seed))
        for seed, broken in enumerate(_corrupt_corpus(config, 9))
    ]


def _with_excess_links(design: NocDesign, config: PlatformConfig, extra: int) -> NocDesign:
    present = design.link_set()
    spare = [link for link in candidate_links(config) if link not in present]
    step = max(1, len(spare) // extra)
    return NocDesign(placement=design.placement, links=design.links + tuple(spare[::step][:extra]))


def directed_repair_case(config: PlatformConfig) -> list[NocDesign]:
    """The directed walk on the corrupt corpus plus over-budget designs (budget trim)."""
    broken = _corrupt_corpus(config, 3) + [
        _with_excess_links(random_design(config, _rng(2000 + seed)), config, 2 + seed)
        for seed in range(3)
    ]
    budget = RepairBudget(max_rounds=2, candidates_per_round=2, max_evaluations=0)
    return [
        repair_design(design, config, seed=seed, budget=budget).design
        for seed, design in enumerate(broken)
    ]


def rewire_link_case(config: PlatformConfig) -> list[NocDesign | None]:
    moves = MoveGenerator(config)
    base = random_design(config, _rng(300))
    return [moves.rewire_link(base, _rng(seed)) for seed in range(10)]


def neighbor_case(config: PlatformConfig) -> list[NocDesign]:
    """A traffic-aware neighbour chain, so every move kind can be drawn."""
    moves = MoveGenerator(config, get_workload("BFS", config, seed=11))
    rng = _rng(400)
    current = random_design(config, rng)
    chain = []
    for _ in range(12):
        current = moves.random_neighbor(current, rng)
        chain.append(current)
    return chain


CASES: dict[str, Callable[[PlatformConfig], list]] = {
    "random_design": random_designs_case,
    "crossover": crossover_case,
    "repair_links": repair_links_case,
    "repair_design": directed_repair_case,
    "rewire_link": rewire_link_case,
    "neighbor": neighbor_case,
}

GOLDEN: dict[tuple[str, str], str] = {
    ("random_design", "tiny-2x2x2"): "ec5f56ae86fad1998f175f0bdbb7428775dd1d2fcde4e6af3fddf5e95ba0939b",
    ("random_design", "small-3x3x3"): "e50e96c09ee38cc3324018a830798f28ab07e4e2034292ee3f0ad023b816ea50",
    ("random_design", "paper-4x4x4"): "40cb01e51038a7079e3696002ff7c60d7aa97afeefae0eb199bb70185b5745ff",
    ("random_design", "big-8x8x4"): "952a5a8f172b79f38f6230d2bb0537e56d0b681de10a18ab6be7f7dfcb1722ac",
    ("crossover", "tiny-2x2x2"): "f56cf03804a74fd51b916f672d6916520dc1eb82cd79cf9cdd5e122d7975c44b",
    ("crossover", "small-3x3x3"): "c09a33b131c9dee93b83419de8f35511af2615ddcfc1a40b4889541375372983",
    ("crossover", "paper-4x4x4"): "61441d480b6b629c2a597e0f014cc13a0ef50edc5461710fa3bfff8fa359af9c",
    ("crossover", "big-8x8x4"): "36cc8d242015cc5fe257c7cc3d7f41beded44c0afb86c27d83a9f20616e50686",
    ("repair_links", "tiny-2x2x2"): "b8689c33506930a7660df89d2903d41cf61b5be5bccc4822e193046ef63487ff",
    ("repair_links", "small-3x3x3"): "282ab7f340a0550e53adcfce84322e3861c737bced1fcb6d9e20e2ef8e8e5b20",
    ("repair_links", "paper-4x4x4"): "94ee0ed715431bb4836b1bee1e70be0de0a56a3d57092e8bc42f58d6f291dd8b",
    ("repair_links", "big-8x8x4"): "7650f4fe1030be213cfd9dd5f15d3471e3f8ec3f5ecb59bab3e2eca88d1db783",
    ("repair_design", "tiny-2x2x2"): "a228e757c7d20aa3f909375f09ad51f3da3b04d67df6364b64526160d313331b",
    ("repair_design", "small-3x3x3"): "0d70d4001e5c04888fa3b87e441843f59626b42152c5b6a2b0d7bc5d4ecf0737",
    ("repair_design", "paper-4x4x4"): "0bf2551a06e74c6a3cce5d6c09b922be79ce0b36179d26854fb656bb648d8f78",
    ("repair_design", "big-8x8x4"): "65220a28d4aadad9b30530cba35d4055916c7010b65d0755ff01833008068039",
    ("rewire_link", "tiny-2x2x2"): "0a413b53322361a882e14fd79316dcf00d7970e49cf0837c94d32355042dcb1b",
    ("rewire_link", "small-3x3x3"): "f9dc6f0a5b6f82bce510eefb38c151db047737548a9d887e5ed321d18c0bd52d",
    ("rewire_link", "paper-4x4x4"): "46fc19f54b36413b285d7a70c0c700cf7f16597f13bdd64613f562775adc3244",
    ("rewire_link", "big-8x8x4"): "688e7bed637e9f76f009d4803d2c455d0d7b12608fc3dc7ea6c5c103d8ee0a9c",
    ("neighbor", "tiny-2x2x2"): "c3462867a697065b88e27aa2f03806bc883d3d07fc133d81a2e64e3ed2791a16",
    ("neighbor", "small-3x3x3"): "92a44be6d79d8e7190d966fca76f8947c7430bf88c1837e49c0165580202532c",
    ("neighbor", "paper-4x4x4"): "2466e09e2970ff59caebc3f6a3176606fce8c2e8cfd998c8e7d86168468c0395",
    ("neighbor", "big-8x8x4"): "69eee87bbdf1e79b2a145bc0ccb354a9abbcf1d9ee0b1338bb1f602cd66b3f81",
}


@pytest.mark.parametrize("platform", list(PLATFORMS))
@pytest.mark.parametrize("case", list(CASES))
def test_operator_output_matches_golden_digest(case, platform):
    config = PLATFORMS[platform]()
    assert digest(CASES[case](config)) == GOLDEN[(case, platform)]


if __name__ == "__main__":
    for case_name, run in CASES.items():
        for platform_name, factory in PLATFORMS.items():
            print(f'    ("{case_name}", "{platform_name}"): "{digest(run(factory()))}",')
