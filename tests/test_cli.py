import json

import pytest

from sgmc.cli import bundled_path, load_chain_file, main
from sgmc.errors import ChainFileError
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

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"states\": [,]\n}", encoding="utf-8")
        with pytest.raises(ChainFileError, match="line 2"):
            load_chain_file(str(path))


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


class TestVerify:
    def test_worked_chains_pass(self, capsys):
        assert run("verify", bundled_path("d2.json"), "--points", "5") == 0
        assert (
            run("verify", bundled_path("example210.json"), "--maxlen", "12") == 0
        )
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "tail sums below expectation" in out

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


class TestNumericOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("mixing", "example210.json", "--start", "7"), "--start"),
            (("mixing", "example210.json", "--tmax", "-1"), "--tmax"),
            (("analyze", "example210.json", "--points", "0"), "--points"),
            (("verify", "example210.json", "--points", "0"), "--points"),
            (("verify", "d2.json", "--points", "0"), "--points"),
            (("analyze", "example210.json", "--max-kr", "0"), "--max-kr"),
            (("analyze", "example210.json", "--max-kr", "-3"), "--max-kr"),
        ],
        ids=[
            "mixing-start-7",
            "mixing-tmax-neg",
            "analyze-points-0",
            "verify-points-0-left-zero",
            "verify-points-0-general",
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
