"""The analyze corpus pinned: one report digest per chain, and every mass as
exact data.

``analyze_corpus.json`` holds 37 chains in the chain-file format: the four
bundled chains, three pinned slow chains and 30 random grid chains (2-5
states, 2-3 generators, grid seed 7; grid-2x3-2 and grid-2x3-3 are one chain,
and grid-5x3-1, which takes minutes, is left out).  For each it pins

- ``digest``: the sha256 of ``report_dict(full_report(spec, seed=1))`` as
  ``sgmc analyze`` serializes it, so any print change shows;
- ``masses``: each element's mass as numerator and denominator term lists,
  compared with ``RationalFunction.equals``, so a change of value shows
  whatever the print.

A declared print change re-records the digests and names the chains whose
digest moved; the masses must pass unedited::

    PYTHONPATH=src python tests/test_analyze_corpus.py --record
"""

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from sgmc.algebra import Polynomial, RationalFunction
from sgmc.cli import load_chain_file
from sgmc.pipeline import full_report, report_dict
from sgmc.semigroup import BOX_LABEL

CORPUS = Path(__file__).with_name("analyze_corpus.json")
ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def analyze(entry, directory):
    """The full report of the entry's chain, loaded as the CLI loads it."""
    path = Path(directory) / "chain.json"
    path.write_text(json.dumps(entry["chain"], ensure_ascii=False), encoding="utf-8")
    chain = load_chain_file(str(path))
    return full_report(chain.spec, seed=1, box_label=chain.box_label or BOX_LABEL)


def digest(report) -> str:
    text = json.dumps(report_dict(report), ensure_ascii=False, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def terms(p: Polynomial) -> list:
    return [[str(c), [list(ve) for ve in mono]] for mono, c in p.sorted_terms()]


def polynomial(rows) -> Polynomial:
    out = Polynomial.zero()
    for c, mono in rows:
        term = Polynomial.const(Fraction(c))
        for var, e in mono:
            term = term * Polynomial.variable(var) ** e
        out = out + term
    return out


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["ids"][0] for e in ENTRIES])
def test_report_digest_and_masses(entry, tmp_path):
    report = analyze(entry, tmp_path)
    masses = report.result.per_element
    assert sorted(masses) == sorted(entry["masses"])
    for name, pinned in entry["masses"].items():
        want = RationalFunction(polynomial(pinned["num"]), polynomial(pinned["den"]))
        assert masses[name].equals(want), name
    assert digest(report) == entry["digest"]


def record():
    """Rewrite every digest, fill in masses only where none are pinned, and
    print the ids of the chains whose digest moved."""
    with tempfile.TemporaryDirectory() as directory:
        for entry in ENTRIES:
            report = analyze(entry, directory)
            new = digest(report)
            if entry.get("digest") not in (None, new):
                print("digest moved:", ", ".join(entry["ids"]))
            entry["digest"] = new
            entry.setdefault("masses", {
                name: {"num": terms(rf.num), "den": terms(rf.den)}
                for name, rf in sorted(report.result.per_element.items())
            })
    # one line per field, so that a re-recorded digest is a one-line diff
    rows = [
        "{" + ",\n ".join(
            f'"{key}": ' + json.dumps(entry[key], ensure_ascii=False, separators=(",", ":"))
            for key in ("ids", "digest", "chain", "masses")
        ) + "}"
        for entry in ENTRIES
    ]
    CORPUS.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
