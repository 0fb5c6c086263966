"""Replay the pinned conformance corpus through the real oracle.

The corpus files are the fuzzer's regression memory: every config in
them once passed (or, for future additions, once failed and was fixed).
Tier-1 replays them end-to-end — real simulations, every applicable
mode — so an execution-mode regression shows up as a corpus failure
with a self-describing discrepancy.
"""

import json
from pathlib import Path

import pytest

from repro.conformance import check_config
from repro.engine import RunSpec

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def load_corpus(path):
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-conformance-corpus"
    assert payload["version"] == 2
    return [RunSpec.from_dict(d) for d in payload["configs"]]


def corpus_cases():
    for path in CORPUS_FILES:
        for index, config in enumerate(load_corpus(path)):
            yield pytest.param(config, id=f"{path.stem}-{index:02d}")


def test_corpus_exists_and_is_nontrivial():
    assert CORPUS_FILES, "pinned corpus missing from tests/conformance/corpus/"
    configs = [c for path in CORPUS_FILES for c in load_corpus(path)]
    assert len(configs) >= 20
    # the corpus must keep exercising every workload and both fault kinds
    assert {c.workload for c in configs} == {
        "sat", "fib", "nqueens", "traversal", "sumrec"}
    assert any(c.reliable and (c.drop or c.duplicate) for c in configs)
    assert any(not c.reliable and (c.drop or c.duplicate) for c in configs)
    assert any(c.shards > 1 for c in configs)
    assert any(c.checkpoint_every is not None for c in configs)


@pytest.mark.parametrize("config", corpus_cases())
def test_corpus_config_conforms(config):
    result = check_config(config)
    assert result.ok, (
        f"{config.describe()}: {result.discrepancy.mode}/"
        f"{result.discrepancy.kind}: {result.discrepancy.detail}"
    )
    assert "serial" in result.modes_run
