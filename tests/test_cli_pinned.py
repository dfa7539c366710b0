"""Pinned CLI output on the bundled chains and on the chains in tests/chains.

Each case runs ``sgmc`` in process and compares its exit code and the
sha256 digests (first 16 hex digits) of its stdout and stderr with the
values recorded below, so that a report stays byte-identical for a fixed
input and seed.  A change that alters a report on purpose re-records the
table with ``python tests/test_cli_pinned.py`` and says which cases moved.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sgmc.cli import bundled_path, main

CHAINS = ("d2.json", "d2box.json", "d2c.json", "example210.json")

# Chains from the benchmark corpus, every probability "sym": left zero
# [(1,0,2),(1,1,1),(2,0,1)], general [(3,0,1,2),(1,1,3,3)], and the left-zero
# [(1,2,1),(1,2,0)] for mixing.
TEST_CHAINS = Path(__file__).with_name("chains")

CASES = [
    f"{command} {chain}{extra}"
    for chain in CHAINS
    for command, extra in (
        ("analyze", ""),
        ("verify", " --maxlen 6"),
        ("export", " --graph rcay"),
        ("export", " --graph kr"),
        ("export", " --graph mc"),
    )
] + [
    "mixing example210.json",
    "mixing example210.json --eval 1=1/2,2=1/4,3=1/4 --epsilon 1/10 --tmax 6 --start 1",
    "mixing d2.json --eval a=1/2,b=1/2",
    "export d2box.json --graph loop:ab□",
    "export d2box.json --graph loop:b□",
    "export d2.json --graph loop:ab",
    "export d2.json --graph loop:a",
    "export d2c.json --graph loop:ab",
    "export d2c.json --graph loop:c",
    "export example210.json --graph loop:1",
    "export example210.json --graph loop:31",
    "export d2box.json --graph loop:ab",
    "export example210.json --graph loop:33",
    "analyze left_zero3.json",
    "analyze general4.json",
    "analyze mixing3.json",
    "mixing mixing3.json --eval a=1/3,b=2/3",
    "export left_zero3.json --graph loop:acab",
    "export left_zero3.json --graph loop:abc",
    "export general4.json --graph loop:aaaaba",
    "export general4.json --graph loop:aaaaa",
    "export general4.json --graph mc",
]

PINNED = {
    "analyze d2.json": (0, "901d2a2bc5235b92", "e3b0c44298fc1c14"),
    "verify d2.json --maxlen 6": (0, "b760aa48b0c1e5e6", "e3b0c44298fc1c14"),
    "export d2.json --graph rcay": (0, "35eb16b4e7a4035e", "e3b0c44298fc1c14"),
    "export d2.json --graph kr": (0, "74c9703c1c4e54ee", "e3b0c44298fc1c14"),
    "export d2.json --graph mc": (0, "870a85784a7242d1", "e3b0c44298fc1c14"),
    "analyze d2box.json": (0, "901d2a2bc5235b92", "e3b0c44298fc1c14"),
    "verify d2box.json --maxlen 6": (0, "b760aa48b0c1e5e6", "e3b0c44298fc1c14"),
    "export d2box.json --graph rcay": (0, "4612fd78ed7a5ea5", "e3b0c44298fc1c14"),
    "export d2box.json --graph kr": (0, "a6822e12d3c585ae", "e3b0c44298fc1c14"),
    "export d2box.json --graph mc": (0, "516c0acdf439deac", "e3b0c44298fc1c14"),
    "analyze d2c.json": (0, "18e4bc20e8c0473f", "e3b0c44298fc1c14"),
    "verify d2c.json --maxlen 6": (0, "b760aa48b0c1e5e6", "e3b0c44298fc1c14"),
    "export d2c.json --graph rcay": (0, "9eb1d242d6ef82b7", "e3b0c44298fc1c14"),
    "export d2c.json --graph kr": (0, "5e6358ad5d8cf47b", "e3b0c44298fc1c14"),
    "export d2c.json --graph mc": (0, "f53e1aad595b5fca", "e3b0c44298fc1c14"),
    "analyze example210.json": (0, "a71960394bb19c2d", "e3b0c44298fc1c14"),
    "verify example210.json --maxlen 6": (0, "da8cd8665ea868f1", "e3b0c44298fc1c14"),
    "export example210.json --graph rcay": (0, "434667fdc08dfed9", "e3b0c44298fc1c14"),
    "export example210.json --graph kr": (0, "fbc4f30b00af62fa", "e3b0c44298fc1c14"),
    "export example210.json --graph mc": (0, "9ad12693670e86b3", "e3b0c44298fc1c14"),
    "mixing example210.json": (0, "e9d677cfc3e1581d", "e3b0c44298fc1c14"),
    "mixing example210.json --eval 1=1/2,2=1/4,3=1/4 --epsilon 1/10 --tmax 6 --start 1": (0, "2509c9242af8164c", "e3b0c44298fc1c14"),
    "mixing d2.json --eval a=1/2,b=1/2": (0, "e3b0c44298fc1c14", "273aca7ba8824966"),
    "export d2box.json --graph loop:ab□": (0, "924cc4e59e3a7ce5", "e3b0c44298fc1c14"),
    "export d2box.json --graph loop:b□": (0, "976dbe9001a33d1f", "e3b0c44298fc1c14"),
    "export d2.json --graph loop:ab": (0, "b735496122209ca6", "e3b0c44298fc1c14"),
    "export d2.json --graph loop:a": (0, "d9d53cb1d158c6f1", "e3b0c44298fc1c14"),
    "export d2c.json --graph loop:ab": (0, "3922a018a5f5a5bc", "e3b0c44298fc1c14"),
    "export d2c.json --graph loop:c": (0, "15d664fa9fd2799e", "e3b0c44298fc1c14"),
    "export example210.json --graph loop:1": (0, "466e6e8be12edd0a", "e3b0c44298fc1c14"),
    "export example210.json --graph loop:31": (0, "a7e3202d5fa0a8b8", "e3b0c44298fc1c14"),
    "export d2box.json --graph loop:ab": (1, "e3b0c44298fc1c14", "ec1ed4fbda6500aa"),
    "export example210.json --graph loop:33": (1, "e3b0c44298fc1c14", "3733b1e23f32911a"),
    "analyze left_zero3.json": (0, "7d446695a065bf15", "e3b0c44298fc1c14"),
    "analyze general4.json": (0, "375e3051932c3009", "e3b0c44298fc1c14"),
    "analyze mixing3.json": (0, "9390e34f27ba6b5d", "e3b0c44298fc1c14"),
    "mixing mixing3.json --eval a=1/3,b=2/3": (0, "54d8a1d958e3f752", "e3b0c44298fc1c14"),
    "export left_zero3.json --graph loop:acab": (0, "a462e723d5839ca3", "e3b0c44298fc1c14"),
    "export left_zero3.json --graph loop:abc": (1, "e3b0c44298fc1c14", "3f5c6d40ec1f1420"),
    "export general4.json --graph loop:aaaaba": (0, "ccbabc3c529e7bec", "e3b0c44298fc1c14"),
    "export general4.json --graph loop:aaaaa": (1, "e3b0c44298fc1c14", "958539fc2f104864"),
    "export general4.json --graph mc": (0, "c94d49700a86a5d3", "e3b0c44298fc1c14"),
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def chain_path(name):
    local = TEST_CHAINS / name
    return str(local) if local.exists() else bundled_path(name)


def run_case(case):
    command, chain, *rest = case.split(" ")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, chain_path(chain), *rest])
    return code, _digest(out.getvalue()), _digest(err.getvalue())


@pytest.mark.parametrize("case", CASES)
def test_output_is_pinned(case, monkeypatch):
    monkeypatch.delenv("SGMC_SEED", raising=False)
    assert run_case(case) == PINNED[case]


if __name__ == "__main__":
    os.environ.pop("SGMC_SEED", None)
    print("PINNED = {")
    for case in CASES:
        code, out, err = run_case(case)
        print(f'    {json.dumps(case, ensure_ascii=False)}: ({code}, "{out}", "{err}"),')
    print("}")
