"""Input checks that no other test reaches: each bad input is refused with a
message that names what is wrong.

The command-line cases exit with code 1 (malformed input) and print nothing
on stdout; the library cases raise before any work.
"""

import json

import pytest

from sgmc.cli import main
from sgmc.errors import NotUsp
from sgmc.expansions import RootedGraph, mc_expand
from sgmc.markov import ChainGenerator, MarkovChainSpec
from sgmc.pipeline import full_report
from sgmc.semigroup import IDENTITY_NAME, FiniteSemigroup

GOOD = {"label": "a", "action": [0, 0], "prob": "1"}
BOX = {"label": "z", "action": "box", "prob": "sym"}
SYMBOLIC = {
    "states": ["x", "y"],
    "generators": [
        {"label": "a", "action": [0, 0], "prob": "sym"},
        {"label": "b", "action": [1, 0], "prob": "sym"},
    ],
}


def chain(*generators, **fields):
    return {"states": ["x", "y"], "generators": list(generators), **fields}


def case(name, payload, argv, message):
    return pytest.param(payload, argv, message, id=name)


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        case("unreadable-file", None, ["analyze"], "cannot read"),
        case("top-level-list", [], ["analyze"], "top level must be an object"),
        case("no-states", chain(GOOD, states=[]), ["analyze"], "'states' must be"),
        case("states-string", chain(GOOD, states="xy"), ["analyze"], "'states' must be"),
        case("no-generators", chain(), ["analyze"], "'generators' must be"),
        case("generators-map", chain(generators={}), ["analyze"], "'generators' must be"),
        case(
            "no-label",
            chain({"action": [0, 0], "prob": "1"}),
            ["analyze"],
            "generator #0 needs a 'label'",
        ),
        case("duplicate-label", chain(GOOD, GOOD), ["analyze"], "duplicate label in generator 'a'"),
        case(
            "prob-above-one",
            chain(dict(GOOD, prob="3/2")),
            ["analyze"],
            "generator 'a': probability 3/2 outside [0, 1]",
        ),
        case(
            "prob-negative",
            chain(dict(GOOD, prob="-1/2")),
            ["analyze"],
            "generator 'a': probability -1/2 outside [0, 1]",
        ),
        case(
            "prob-not-rational",
            chain(dict(GOOD, prob="half")),
            ["analyze"],
            "generator 'a': not a rational number: 'half'",
        ),
        case(
            "two-boxes",
            chain(GOOD, BOX, dict(BOX, label="w")),
            ["analyze"],
            "more than one box generator",
        ),
        case(
            "numeric-box",
            chain(GOOD, dict(BOX, prob="0")),
            ["analyze"],
            "generator 'z': the box generator must have prob \"sym\"",
        ),
        case("only-a-box", chain(BOX), ["analyze"], "no generator carries an action table"),
        case(
            "identity-label",
            chain(dict(GOOD, label=IDENTITY_NAME)),
            ["analyze"],
            f"generator {IDENTITY_NAME!r}: the label is reserved for the adjoined identity",
        ),
        case(
            "identity-box-label",
            chain(GOOD, dict(BOX, label=IDENTITY_NAME)),
            ["export", "--graph", "mc"],
            f"generator {IDENTITY_NAME!r}: the label is reserved for the adjoined identity",
        ),
        case("options-list", chain(GOOD, options=[]), ["analyze"], "'options' must be an object"),
        case("eval-no-equals", SYMBOLIC, ["mixing", "--eval", "a"], "--eval entry 'a' is not"),
        case(
            "eval-unknown",
            SYMBOLIC,
            ["mixing", "--eval", "a=1/2,c=1/2"],
            "--eval names unknown generator 'c'",
        ),
        case("eval-missing", SYMBOLIC, ["mixing", "--eval", "a=1"], "--eval missing generators: b"),
        case("unknown-graph", SYMBOLIC, ["export", "--graph", "foo"], "unknown --graph kind 'foo'"),
        case(
            "unknown-graph-before-build",
            SYMBOLIC,
            ["export", "--graph", "foo", "--max-elements", "2"],
            "unknown --graph kind 'foo'",
        ),
    ],
)
def test_command_line_refuses_bad_input(payload, argv, message, tmp_path, capsys):
    path = tmp_path / "chain.json"
    if payload is not None:
        path.write_text(json.dumps(payload), encoding="utf-8")
    command, *options = argv
    assert main([command, str(path), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _adjoin_twice():
    FiniteSemigroup.generate([("a", (0, 0))]).adjoin_zero("z").adjoin_zero("w")


def _ambiguous_mc():
    # two 'a' edges leave the root: not label-deterministic
    kr = RootedGraph(range(2), ["r", "v"], [(0, "a", 0), (0, "a", 1)], 0, ["a"])
    mc_expand(kr)


def _two_state_spec():
    return MarkovChainSpec(
        ("x", "y"),
        (ChainGenerator("a", (0, 0), None), ChainGenerator("b", (1, 1), None)),
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: FiniteSemigroup.generate([]),
            ValueError,
            "at least one generator is required",
            id="no-generators",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", ())]),
            ValueError,
            "state set must be nonempty",
            id="no-states",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", (0, 1)), ("b", (0,))]),
            ValueError,
            "generator 'b' is not a map on 2 states",
            id="short-map",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", (0, 2))]),
            ValueError,
            "generator 'a' is not a map on 2 states",
            id="image-out-of-range",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", (0, 0)), ("a", (1, 1))]),
            ValueError,
            "duplicate generator label 'a'",
            id="duplicate-label",
        ),
        pytest.param(_adjoin_twice, ValueError, "zero already adjoined", id="zero-twice"),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", (0, 0)), (IDENTITY_NAME, (1, 1))]),
            ValueError,
            f"label {IDENTITY_NAME!r} is reserved for the adjoined identity",
            id="identity-label",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", (0, 0))]).adjoin_zero(IDENTITY_NAME),
            ValueError,
            f"label {IDENTITY_NAME!r} is reserved for the adjoined identity",
            id="identity-zero-label",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("", (1, 0))]),
            ValueError,
            "the empty label is a prefix of every word",
            id="empty-label",
        ),
        pytest.param(
            lambda: FiniteSemigroup.generate([("a", (0, 0))]).adjoin_zero(""),
            ValueError,
            "the empty label is a prefix of every word",
            id="empty-zero-label",
        ),
        pytest.param(_ambiguous_mc, NotUsp, "label-deterministic", id="mc-not-deterministic"),
        pytest.param(
            lambda: full_report(_two_state_spec(), points=0),
            ValueError,
            "^points must be at least 1, got 0$",
            id="no-oracle-points",
        ),
        pytest.param(
            lambda: full_report(_two_state_spec(), points=-1),
            ValueError,
            "^points must be at least 1, got -1$",
            id="negative-oracle-points",
        ),
    ],
)
def test_library_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
