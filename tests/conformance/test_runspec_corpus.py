"""The pinned conformance corpus as engine specs.

Every corpus point must (a) survive a JSON round-trip identically,
(b) pass the engine's capability table once normalised to its serial
baseline, and (c) execute to the *same observable schedule* whether built
from the original spec or from its JSON round-trip — the property that
makes checkpoint headers and replay artifacts trustworthy.
"""

import json
from pathlib import Path

import pytest

from repro.engine import RunSpec, execute, violations

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def corpus_cases():
    for path in CORPUS_FILES:
        payload = json.loads(path.read_text())
        for index, data in enumerate(payload["configs"]):
            yield pytest.param(
                RunSpec.from_dict(data), id=f"{path.stem}-{index:02d}"
            )


def _serial_spec(config):
    # shards and checkpoint cadence are per-mode knobs; the canonical
    # serial baseline drops both (exactly what the oracle's serial mode
    # runs when the config is not checkpointable)
    return config.with_(shards=1, checkpoint_every=None)


@pytest.mark.parametrize("config", corpus_cases())
def test_corpus_to_runspec_round_trips(config):
    assert RunSpec.from_json(config.to_json()) == config
    assert violations(_serial_spec(config)) == []


@pytest.mark.parametrize("config", corpus_cases())
def test_corpus_replay_is_spec_transparent(config):
    spec = _serial_spec(config)
    rebuilt = RunSpec.from_json(spec.to_json())
    a = execute(spec, want_state_digest=True)
    b = execute(rebuilt, want_state_digest=True)
    assert a.verdict == b.verdict
    assert a.schedule_digest() == b.schedule_digest()
    assert a.semantic_digest == b.semantic_digest
