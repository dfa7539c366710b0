import json
import re

import pytest

from sgmc import cli
from sgmc.cli import bundled_path, load_chain_file, main
from sgmc.errors import CapExceeded, ChainFileError, VerificationFailed
from sgmc.semigroup import FiniteSemigroup


def run(*argv):
    return main(list(argv))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestChainFile:
    def test_bundled_files_load(self):
        for name in ("d2.json", "d2c.json", "d2box.json", "example210.json"):
            chain = load_chain_file(bundled_path(name))
            assert chain.spec.states

    def test_box_generator_recognized(self):
        chain = load_chain_file(bundled_path("d2box.json"))
        assert chain.box_label == "□"
        assert [g.label for g in chain.spec.generators] == ["a", "b"]

    def test_action_out_of_range(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {
                "states": ["x", "y"],
                "generators": [{"label": "g", "action": [0, 5], "prob": "1"}],
            },
        )
        with pytest.raises(ChainFileError, match="generator 'g'.*out of range"):
            load_chain_file(path)

    def test_boolean_action_entries_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bools.json",
            {
                "states": ["x", "y"],
                "generators": [
                    {"label": "g", "action": [True, False], "prob": "1"}
                ],
            },
        )
        with pytest.raises(ChainFileError, match="generator 'g'.*state indices"):
            load_chain_file(path)
        assert run("analyze", path) == 1

    def test_prob_overflow(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {
                "states": ["x"],
                "generators": [
                    {"label": "g", "action": [0], "prob": "2/3"},
                    {"label": "h", "action": [0], "prob": "2/3"},
                ],
            },
        )
        with pytest.raises(ChainFileError, match="sum"):
            load_chain_file(path)

    @pytest.mark.parametrize("command", ["analyze", "mixing"])
    def test_box_generator_keeps_the_probability_sum_check(
        self, command, tmp_path, capsys
    ):
        # the box generator's required "sym" once counted as a symbolic
        # probability: analyze exited 0 and mixing 2 on this chain
        path = write(
            tmp_path,
            "short.json",
            {
                "states": ["x", "y"],
                "generators": [
                    {"label": "a", "action": [0, 0], "prob": "1/2"},
                    {"label": "b", "action": [1, 1], "prob": "2/5"},
                    {"label": "z", "action": "box", "prob": "sym"},
                ],
            },
        )
        assert run(command, path) == 1
        assert "numeric probabilities sum to 9/10, expected 1" in capsys.readouterr().err
        assert load_chain_file(bundled_path("d2box.json")).box_label == "□"

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"states\": [,]\n}", encoding="utf-8")
        with pytest.raises(ChainFileError, match="line 2"):
            load_chain_file(str(path))

    REPEATED_STATE = {
        "states": ["x", "x"],
        "generators": [
            {"label": "a", "action": [0, 0], "prob": "1/2"},
            {"label": "b", "action": [1, 1], "prob": "1/2"},
        ],
    }

    def test_repeated_state_name_rejected(self, tmp_path):
        path = write(tmp_path, "repeated.json", self.REPEATED_STATE)
        with pytest.raises(ChainFileError, match="repeated state name 'x'"):
            load_chain_file(path)

    @pytest.mark.parametrize("command", ["analyze", "mixing"])
    def test_repeated_state_name_is_an_input_error(self, command, tmp_path, capsys):
        # with the states merged by name, analyze reported an oracle mismatch
        # (exit 2) and mixing printed a distance of 1/4 at t = 0, not 1/2
        path = write(tmp_path, "repeated.json", self.REPEATED_STATE)
        assert run(command, path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated state name 'x'" in captured.err

    @pytest.mark.parametrize(
        "label",
        ["", "a,c", "a=", " a", "a\t"],
        ids=["empty", "comma", "equals", "leading-space", "trailing-space"],
    )
    def test_label_the_command_line_cannot_name(self, label, tmp_path, capsys):
        # --eval splits on ',' and '=' and strips, loop:<w> splits on ','
        path = write(
            tmp_path,
            "label.json",
            {
                "states": ["x", "y"],
                "generators": [
                    {"label": label, "action": [0, 0], "prob": "sym"},
                    {"label": "b", "action": [1, 0], "prob": "sym"},
                ],
            },
        )
        with pytest.raises(ChainFileError, match=re.escape(f"generator {label!r}")):
            load_chain_file(path)
        assert run("mixing", path, "--eval", "b=1") == 1
        assert f"generator {label!r}" in capsys.readouterr().err


class TestAnalyze:
    def test_two_state_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("analyze", bundled_path("example210.json"), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["case"] == "left_zero"
        assert payload["kleene"]["32"] == "3(33)*2"
        assert payload["stationary"]["1"] == {
            "num": "x_1 + x_2*x_3",
            "den": "1 - x_3^2",
        }
        assert payload["ergodicity"] == {"irreducible": True, "period": 1}

    def test_group_chain_uniform(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("analyze", bundled_path("d2.json"), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["case"] == "general"
        assert payload["ergodicity"]["period"] == 2
        for name in ("a", "b", "ab", "aa"):
            assert payload["stationary"][name] == {"num": "1/4", "den": "1"}

    def test_identity_generator_aperiodic(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("analyze", bundled_path("d2c.json"), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["ergodicity"]["period"] == 1

    def test_reports_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("analyze", bundled_path("example210.json"), "--seed", "5", "--out", str(a))
        run("analyze", bundled_path("example210.json"), "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_timings_name_the_stages_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        plain = tmp_path / "plain.json"
        assert run("analyze", bundled_path("d2.json"), "--timings", "--out", str(out)) == 0
        lines = capsys.readouterr().err.splitlines()
        stages = [re.fullmatch(r"# (\w+): \d+\.\d{3}s", line)[1] for line in lines]
        assert stages == ["generate", "stationary", "normalization", "oracle"]
        assert run("analyze", bundled_path("d2.json"), "--out", str(plain)) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == plain.read_bytes()

    def test_malformed_input_exit_code(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {
                "states": ["x", "y"],
                "generators": [{"label": "g", "action": [0, 7], "prob": "1"}],
            },
        )
        assert run("analyze", path) == 1

    def test_cap_exit_code(self, tmp_path):
        path = write(
            tmp_path,
            "capped.json",
            {
                "states": ["1", "2"],
                "generators": [
                    {"label": "1", "action": [0, 0], "prob": "1/3"},
                    {"label": "2", "action": [1, 1], "prob": "1/3"},
                    {"label": "3", "action": [1, 0], "prob": "1/3"},
                ],
                "options": {"max_elements": 2},
            },
        )
        assert run("analyze", path) == 3


    def test_labels_that_are_not_a_prefix_code(self, tmp_path, capsys):
        # a.b and the generator ab were both named "ab" and their masses merged
        path = write(
            tmp_path,
            "collide.json",
            {
                "states": ["0", "1", "2"],
                "generators": [
                    {"label": "a", "action": [1, 2, 0], "prob": "1/3"},
                    {"label": "b", "action": [0, 0, 0], "prob": "1/3"},
                    {"label": "ab", "action": [2, 2, 2], "prob": "1/3"},
                ],
            },
        )
        assert run("analyze", path) == 1
        assert "'a' is a prefix of 'ab'" in capsys.readouterr().err


class TestMixing:
    def test_worked_bound(self, capsys):
        assert (
            run(
                "mixing",
                bundled_path("example210.json"),
                "--eval",
                "1=1/3,2=1/3,3=1/3",
                "--epsilon",
                "1/2",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t_mix <= 3 for epsilon = 1/2" in out
        assert "E[tau | 1] = 3/2" in out

    def test_tail_at_zero_printed(self, capsys):
        assert run("mixing", bundled_path("example210.json"), "--tmax", "2") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("0    1 ")

    def test_non_left_zero_warns_and_skips(self, capsys):
        assert (
            run(
                "mixing",
                bundled_path("d2.json"),
                "--eval",
                "a=1/2,b=1/2",
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "not left zero" in err

    def test_semigroup_built_once_under_the_given_cap(self, monkeypatch):
        calls = []
        generate = FiniteSemigroup.generate.__func__

        def counting(cls, generators, max_elements):
            calls.append(max_elements)
            return generate(cls, generators, max_elements)

        monkeypatch.setattr(FiniteSemigroup, "generate", classmethod(counting))
        code = run(
            "mixing", bundled_path("example210.json"), "--max-elements", "200000"
        )
        assert code == 0
        assert calls == [200000]

    def test_missing_eval_point(self):
        assert run("mixing", bundled_path("d2.json")) == 1

    def test_negative_eval_probability_is_a_parse_error(self, capsys):
        # the values sum to 1, so only the range check can catch this point
        code = run(
            "mixing",
            bundled_path("example210.json"),
            "--eval",
            "1=-1/2,2=3/2,3=0",
        )
        assert code == 1
        assert "--eval 1" in capsys.readouterr().err

    def test_repeated_eval_label_is_a_parse_error(self, capsys):
        code = run(
            "mixing",
            bundled_path("example210.json"),
            "--eval",
            "1=1/2,2=1/3,3=1/3,1=1/3",
        )
        assert code == 1
        assert "generator '1' twice" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["eval", "chain file"])
    def test_boundary_point_with_a_mass_of_zero(self, source, tmp_path, capsys):
        # generator 1 alone: every walk is absorbed at the first step, and
        # element 2 has mass 0, so E[tau | 2] is undefined but E[tau] = 1
        if source == "eval":
            argv = [bundled_path("example210.json"), "--eval", "1=1,2=0,3=0"]
        else:
            chain = json.loads(
                open(bundled_path("example210.json"), encoding="utf-8").read()
            )
            for gen, prob in zip(chain["generators"], ("1", "0", "0")):
                gen["prob"] = prob
            argv = [write(tmp_path, "boundary.json", chain)]
            assert run("analyze", *argv) == 0
            assert run("verify", *argv) == 0
            capsys.readouterr()
        assert run("mixing", *argv) == 0
        out = capsys.readouterr().out
        assert "E[tau | 2] = undefined (mass 0)" in out
        assert "E[tau] = 1 (1.000000)" in out
        assert "t_mix <= 4 for epsilon = 1/4" in out

    def test_point_where_the_ideal_is_never_reached(self, capsys):
        # generator 3 alone never leaves the non-ideal elements: a pole
        code = run(
            "mixing", bundled_path("example210.json"), "--eval", "1=0,2=0,3=1"
        )
        assert code == 2
        assert "x_1=0, x_2=0, x_3=1" in capsys.readouterr().err


class TestExport:
    def test_cayley_graph(self, tmp_path):
        out = tmp_path / "g.dot"
        assert run("export", bundled_path("d2.json"), "--graph", "rcay", "--out", str(out)) == 0
        text = out.read_text()
        assert text.count("[label=") - text.count("->") == 5
        assert text.count("color=blue") == 2

    def test_expansion_with_box_leaves(self, tmp_path):
        out = tmp_path / "g.dot"
        assert run("export", bundled_path("d2box.json"), "--graph", "mc", "--out", str(out)) == 0
        text = out.read_text()
        vertices = text.count("[label=") - text.count("->")
        assert vertices == 30

    def test_loop_graph(self, tmp_path):
        out = tmp_path / "g.dot"
        assert (
            run(
                "export",
                bundled_path("d2box.json"),
                "--graph",
                "loop:ab□",
                "--out",
                str(out),
            )
            == 0
        )
        text = out.read_text()
        vertices = text.count("[label=") - text.count("->")
        assert vertices == 24
        assert text.count("->") == 39

    def test_unknown_vertex_word(self):
        assert run("export", bundled_path("d2box.json"), "--graph", "loop:zz") == 1

    def test_kr_graph_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        run("export", bundled_path("d2.json"), "--graph", "kr", "--out", str(a))
        run("export", bundled_path("d2.json"), "--graph", "kr", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("[label=") - a.read_text().count("->") == 9


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
DOT_LINE = re.compile(r"  v\d+ (?:-> v\d+ )?\[label=(" + DOT_STRING.pattern + ")")


def _unquoted(quoted):
    return re.sub(r"\\(.)", r"\1", quoted[1:-1])


class TestExportEscapes:
    """Labels holding DOT's quote and escape characters."""

    @pytest.fixture
    def chain(self, tmp_path):
        return write(
            tmp_path,
            "quotes.json",
            {
                "states": ["x", "y"],
                "generators": [
                    {"label": 'a"', "action": [1, 0], "prob": "1/2"},
                    {"label": "b\\", "action": [0, 0], "prob": "1/2"},
                ],
            },
        )

    def _export(self, chain, tmp_path, kind):
        out = tmp_path / "g.dot"
        assert run("export", chain, "--graph", kind, "--out", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        # every '"' opens or closes, or is escaped within, a well-formed string
        assert '"' not in DOT_STRING.sub("", text)
        quoted = DOT_STRING.findall(text)
        labels = [m.group(1) for line in text.splitlines() if (m := DOT_LINE.match(line))]
        assert quoted == labels
        return [_unquoted(q) for q in labels]

    def test_every_quoted_string_unescapes_to_its_name(self, chain, tmp_path):
        from sgmc.expansions import DEFAULT_MAX_KR, DEFAULT_MAX_MC, kr_expand, right_cayley
        from sgmc.pipeline import _expand, build_semigroup

        s = build_semigroup(load_chain_file(chain).spec)
        assert s.minimal_ideal().is_left_zero
        _, mc, _, _ = _expand(s, DEFAULT_MAX_KR, DEFAULT_MAX_MC)
        for kind, g in (("rcay", right_cayley(s)), ("kr", kr_expand(s)), ("mc", mc)):
            want = g.names + [label for _, label, _ in g.edges]
            assert self._export(chain, tmp_path, kind) == want, kind
        names = self._export(chain, tmp_path, 'loop:a",b\\')
        assert 'a"b\\' in names
        assert set(names) <= set(mc.names) | {'a"', "b\\"}


class TestLoopWordLabels:
    """Labels longer than one character are separated by ',' in loop:<word>."""

    @pytest.fixture
    def chain(self, tmp_path):
        return write(
            tmp_path,
            "long_labels.json",
            {
                "states": ["x", "y"],
                "generators": [
                    {"label": "2", "action": [1, 0], "prob": "1/2"},
                    {"label": "10", "action": [0, 0], "prob": "1/2"},
                ],
            },
        )

    def test_comma_separated_word_exports(self, chain, tmp_path):
        out = tmp_path / "g.dot"
        assert run("export", chain, "--graph", "loop:2,10", "--out", str(out)) == 0
        assert '[label="210"' in out.read_text(encoding="utf-8")

    def test_missing_word_is_named_as_typed(self, chain, capsys):
        assert run("export", chain, "--graph", "loop:10,2,10") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no vertex '10,2,10' in the expansion\n"
        assert captured.out == ""

    def test_run_together_word_names_the_separator(self, chain, capsys):
        assert run("export", chain, "--graph", "loop:210") == 1
        err = capsys.readouterr().err
        assert err == "error: '1' is not a generator label (separate labels with ',')\n"


def test_empty_loop_word_names_the_root(capsys):
    # loop: asks for the empty word, the root, which is named as Mc names it
    assert run("export", bundled_path("example210.json"), "--graph", "loop:") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: vertex '𝟙' does not end in the minimal ideal\n"
    assert captured.out == ""


class TestVerify:
    def test_worked_chains_pass(self, capsys):
        assert run("verify", bundled_path("d2.json"), "--points", "5") == 0
        assert (
            run("verify", bundled_path("example210.json"), "--maxlen", "12") == 0
        )
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "tail sums below expectation" in out

    def test_cap_hit_exits_with_the_cap_code(self, monkeypatch, capsys):
        def capped(result, maxlen):
            raise CapExceeded("kleene_enumerate: more than 10 words enumerated")

        monkeypatch.setattr(cli, "verify_language_and_series", capped)
        assert run("verify", bundled_path("d2.json")) == 3
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert "error: kleene_enumerate: more than 10 words" in captured.err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("SGMC_SEED", "77")
        run("analyze", bundled_path("example210.json"), "--out", str(a))
        monkeypatch.delenv("SGMC_SEED")
        run("analyze", bundled_path("example210.json"), "--seed", "77", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_skewed_numeric_probabilities_are_a_parse_error(self, tmp_path):
        path = write(
            tmp_path,
            "skewed.json",
            {
                "states": ["1", "2"],
                "generators": [
                    {"label": "1", "action": [0, 0], "prob": "1/2"},
                    {"label": "2", "action": [1, 1], "prob": "1/3"},
                ],
            },
        )
        assert run("analyze", path) == 1

    def test_non_stochastic_eval_point_fails_verification(self):
        code = run(
            "mixing",
            bundled_path("example210.json"),
            "--eval",
            "1=1/2,2=1/3,3=0",
        )
        assert code == 2


# every command, with the arguments it needs besides the chain file
COMMANDS = [("analyze",), ("verify",), ("mixing",), ("export", "--graph", "rcay")]


class TestNumericOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("mixing", "example210.json", "--start", "7"), "--start"),
            (("mixing", "example210.json", "--tmax", "-1"), "--tmax"),
            (("analyze", "example210.json", "--points", "0"), "--points"),
            (("verify", "example210.json", "--points", "0"), "--points"),
            (("verify", "d2.json", "--points", "0"), "--points"),
            (("verify", "example210.json", "--maxlen", "-1"), "--maxlen"),
            (("analyze", "example210.json", "--max-kr", "0"), "--max-kr"),
            (("analyze", "example210.json", "--max-kr", "-3"), "--max-kr"),
        ],
        ids=[
            "mixing-start-7",
            "mixing-tmax-neg",
            "analyze-points-0",
            "verify-points-0-left-zero",
            "verify-points-0-general",
            "verify-maxlen-neg",
            "max-kr-0",
            "max-kr-neg",
        ],
    )
    def test_out_of_range_value_is_an_input_error(self, argv, option, capsys):
        command, chain, *rest = argv
        assert run(command, bundled_path(chain), *rest) == 1
        captured = capsys.readouterr()
        assert option in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "options, key",
        [
            ({"max_kr": True}, "max_kr"),
            ({"max_kr": 2.7}, "max_kr"),
            ({"max_kr": "lots"}, "max_kr"),
            ({"seed": "x"}, "seed"),
        ],
        ids=["bool-cap", "float-cap", "string-cap", "string-seed"],
    )
    def test_chain_file_option_must_be_an_integer(
        self, options, key, tmp_path, capsys
    ):
        with open(bundled_path("example210.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["options"] = options
        path = write(tmp_path, "chain.json", payload)
        for argv in COMMANDS:
            assert run(argv[0], path, *argv[1:]) == 1, argv
            captured = capsys.readouterr()
            assert f"options.{key} must be an integer" in captured.err, argv
            assert captured.out == ""

    def test_chain_file_cap_below_one_is_refused_under_a_flag(self, tmp_path, capsys):
        # the file's value is checked on load, also where --max-kr overrides it
        with open(bundled_path("example210.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["options"] = {"max_kr": 0}
        path = write(tmp_path, "chain.json", payload)
        for argv in COMMANDS:
            assert run(argv[0], path, *argv[1:], "--max-kr", "5") == 1, argv
            captured = capsys.readouterr()
            message = "options.max_kr must be an integer of at least 1, got 0"
            assert message in captured.err, argv
            assert captured.out == ""

    def test_env_seed_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("SGMC_SEED", "x")
        assert run("analyze", bundled_path("example210.json")) == 1
        captured = capsys.readouterr()
        assert "SGMC_SEED must be an integer" in captured.err
        assert captured.out == ""


class TestUsageAndOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "d2.json", "--points", "abc"),
            ("analyze",),
            ("frobnicate", "d2.json"),
            ("export", "d2.json", "--graph", "mc", "--seed", "5"),
            ("mixing", "example210.json", "--seed", "5"),
        ],
        ids=["bad-int", "no-input", "unknown-command", "export-seed", "mixing-seed"],
    )
    def test_usage_error_is_an_input_error(self, argv, capsys):
        command, *rest = argv
        rest = [bundled_path(a) if a.endswith(".json") else a for a in rest]
        with pytest.raises(SystemExit) as exc:
            run(command, *rest)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sgmc")
        assert "error: " in captured.err
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("analyze", "--help")
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_seed_is_read_where_points_are_sampled(self, tmp_path, capsys):
        # --seed picks the sampled points, so two seeds give two reports
        chain = bundled_path("example210.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("analyze", chain, "--seed", "5", "--points", "1", "--out", str(a)) == 0
        assert run("analyze", chain, "--seed", "6", "--points", "1", "--out", str(b)) == 0
        assert a.read_bytes() != b.read_bytes()
        assert run("verify", chain, "--seed", "5", "--maxlen", "4") == 0

    @pytest.mark.parametrize("target", ["missing/dir/g.dot", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_is_an_input_error(self, target, tmp_path, capsys):
        out = str(tmp_path / target)
        code = run("export", bundled_path("d2.json"), "--graph", "rcay", "--out", out)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_verify_writes_its_lines_to_out(self, tmp_path, capsys):
        chain = bundled_path("d2.json")
        assert run("verify", chain, "--maxlen", "4") == 0
        printed = capsys.readouterr().out
        out = tmp_path / "verify.txt"
        assert run("verify", chain, "--maxlen", "4", "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed
        assert printed.count("pass ") == 3 and "FAIL" not in printed

    @pytest.mark.parametrize("target", ["missing/dir/v.txt", "."], ids=["no-dir", "a-dir"])
    def test_verify_unwritable_out_is_an_input_error(self, target, tmp_path, capsys):
        out = str(tmp_path / target)
        assert run("verify", bundled_path("d2.json"), "--maxlen", "4", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("stop, code", [("fail", 2), ("cap", 3)])
    def test_verify_writes_its_lines_to_out_when_it_stops(
        self, stop, code, tmp_path, monkeypatch, capsys
    ):
        def stopped(result, maxlen):
            if stop == "cap":
                raise CapExceeded("kleene_enumerate: more than 10 words enumerated")
            raise VerificationFailed("series degree 3 of ab counts 2 but finds 1")

        monkeypatch.setattr(cli, "verify_language_and_series", stopped)
        out = tmp_path / "verify.txt"
        assert run("verify", bundled_path("d2.json"), "--out", str(out)) == code
        lines = out.read_text(encoding="utf-8").splitlines()
        assert capsys.readouterr().out == ""
        assert lines[:2] == [
            "pass normalization: masses sum to 1",
            "pass oracle equivalence at 3 points",
        ]
        if stop == "fail":
            assert lines[2:] == [
                "FAIL path/Kleene/series consistency to length 10: series degree 3"
                " of ab counts 2 but finds 1",
            ]
        else:
            assert lines[2:] == []

    def test_unknown_option_key_is_refused(self, tmp_path, capsys):
        with open(bundled_path("example210.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        known = {"max_elements": 50, "max_kr": 500, "max_mc": 500, "seed": 3}
        payload["options"] = known
        assert load_chain_file(write(tmp_path, "known.json", payload)).options == known
        payload["options"] = dict(known, maxkr=5)
        path = write(tmp_path, "typo.json", payload)
        with pytest.raises(ChainFileError, match="unknown option 'maxkr'"):
            load_chain_file(path)
        assert run("analyze", path) == 1
        captured = capsys.readouterr()
        assert "unknown option 'maxkr'" in captured.err
        assert captured.out == ""
