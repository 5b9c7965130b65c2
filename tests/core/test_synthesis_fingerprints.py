"""Synthesis fingerprint wall: optimisation speed-ups must not change designs.

``fixtures/synthesis_fingerprints.json`` pins, for every catalog circuit at
quick scale under ``FlowOptions(effort="medium")`` and for every
``tests/gen/corpus`` entry under each of its flow variants, the structural
fingerprint of the optimised AIG (:func:`repro.core.design_fingerprint`)
and the mapped JJ count.  A change that only makes synthesis faster keeps
every row byte-identical; a change that alters what synthesis produces must
regenerate the fixture deliberately::

    PYTHONPATH=src python tests/core/test_synthesis_fingerprints.py
"""

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.circuits import build, names
from repro.core import Flow, FlowOptions, design_fingerprint, flow_variant
from repro.gen import GenSpec

FIXTURE = Path(__file__).parent / "fixtures" / "synthesis_fingerprints.json"
CORPUS_DIR = Path(__file__).resolve().parents[1] / "gen" / "corpus"

Rows = Dict[str, Dict[str, object]]


def _row(result) -> Dict[str, object]:
    return {"aig": design_fingerprint(result.aig), "jj": result.jj_count()}


def catalog_rows() -> Rows:
    flow = Flow.from_options(FlowOptions(effort="medium"))
    return {name: _row(flow.run(build(name, "quick"))) for name in names()}


def corpus_rows() -> Rows:
    rows: Rows = {}
    for path in sorted(CORPUS_DIR.glob("*.json")):
        entry = json.loads(path.read_text(encoding="utf-8"))
        gen = GenSpec.create(entry["family"], seed=entry["seed"], **entry["params"])
        for flow_name in entry["flows"]:
            result = flow_variant(flow_name).run(build(gen.name()))
            rows[f"{path.stem}/{flow_name}"] = _row(result)
    return rows


def _expected(section: str) -> Rows:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))[section]


@pytest.mark.slow
def test_catalog_synthesis_matches_fingerprints():
    assert catalog_rows() == _expected("catalog")


def test_corpus_synthesis_matches_fingerprints():
    assert corpus_rows() == _expected("corpus")


if __name__ == "__main__":
    document = {"catalog": catalog_rows(), "corpus": corpus_rows()}
    FIXTURE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
