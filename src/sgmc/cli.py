"""Command line front end: analyze, mixing, export, verify.

Chain files are JSON; probabilities are strings like "1/3" (or "sym" for a
purely symbolic generator) so nothing is ever rounded.  A generator whose
action is the string "box" stands for the adjoined zero; it takes part in
graph exports but not in the chain dynamics.

Exit codes: 0 ok, 1 malformed input, 2 verification failure, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import (
    CapExceeded,
    ChainFileError,
    NotLeftZero,
    NotStochastic,
    SgmcError,
    UnknownVertexWord,
    VerificationFailed,
)
from .expansions import (
    DEFAULT_MAX_KR,
    DEFAULT_MAX_MC,
    kr_expand,
    render_dot,
    right_cayley,
    scc,
    simple_path_edges,
    transition_edges,
)
from .loopkleene import flatten, pict
from .markov import ChainGenerator, MarkovChainSpec, ergodicity
from .mixing import mixing_report
from .pipeline import (
    _expand,
    build_semigroup,
    full_report,
    report_dict,
    stationary,
    stationary_left_zero,
    verify_language_and_series,
    verify_oracle,
    sample_simplex_points,
    normalization_holds,
)
from .semigroup import DEFAULT_MAX_ELEMENTS

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAP = 3

DEFAULT_SEED = 1


@dataclass
class ChainFile:
    spec: MarkovChainSpec
    box_label: str | None
    options: dict


def parse_rational(text, where: str) -> Fraction:
    try:
        value = Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ChainFileError(f"{where}: not a rational number: {text!r}") from exc
    return value


def load_chain_file(path: str) -> ChainFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ChainFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChainFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(raw, dict):
        raise ChainFileError(f"{path}: top level must be an object")
    states = raw.get("states")
    if not isinstance(states, list) or not states or not all(
        isinstance(s, str) for s in states
    ):
        raise ChainFileError(f"{path}: 'states' must be a nonempty list of names")
    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise ChainFileError(f"{path}: 'generators' must be a nonempty list")
    n = len(states)
    generators = []
    box_label = None
    seen = set()
    numeric_total = Fraction(0)
    any_symbolic = False
    for k, entry in enumerate(gens_raw):
        where = f"generator #{k}"
        if not isinstance(entry, dict) or "label" not in entry:
            raise ChainFileError(f"{path}: {where} needs a 'label'")
        label = str(entry["label"])
        where = f"generator {label!r}"
        if label in seen:
            raise ChainFileError(f"{path}: duplicate label in {where}")
        seen.add(label)
        prob_raw = entry.get("prob", "sym")
        if prob_raw == "sym":
            prob = None
            any_symbolic = True
        else:
            prob = parse_rational(prob_raw, where)
            if not 0 <= prob <= 1:
                raise ChainFileError(
                    f"{path}: {where}: probability {prob} outside [0, 1]"
                )
            numeric_total += prob
        action = entry.get("action")
        if action == "box":
            if box_label is not None:
                raise ChainFileError(f"{path}: more than one box generator")
            if prob is not None:
                raise ChainFileError(
                    f"{path}: {where}: the box generator must have prob \"sym\""
                )
            box_label = label
            continue
        if (
            not isinstance(action, list)
            or len(action) != n
            or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in action
            )
        ):
            raise ChainFileError(
                f"{path}: {where}: 'action' must list {n} state indices"
            )
        for i in action:
            if not 0 <= i < n:
                raise ChainFileError(
                    f"{path}: {where}: action index {i} out of range "
                    f"({n} states)"
                )
        generators.append(ChainGenerator(label, tuple(action), prob))
    if not generators:
        raise ChainFileError(f"{path}: no generator carries an action table")
    if numeric_total > 1:
        raise ChainFileError(
            f"{path}: numeric probabilities sum to {numeric_total} > 1"
        )
    if not any_symbolic and numeric_total != 1:
        raise ChainFileError(
            f"{path}: numeric probabilities sum to {numeric_total}, expected 1"
        )
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ChainFileError(f"{path}: 'options' must be an object")
    return ChainFile(
        MarkovChainSpec(tuple(states), tuple(generators)), box_label, options
    )


def bundled_path(name: str) -> str:
    """Filesystem path of one of the chain files shipped with the package."""
    return str(resources.files("sgmc").joinpath("chains", name))


def _parse_eval(text: str, spec: MarkovChainSpec) -> dict:
    point = {}
    for item in text.split(","):
        if "=" not in item:
            raise ChainFileError(f"--eval entry {item!r} is not label=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in spec.labels():
            raise ChainFileError(f"--eval names unknown generator {key!r}")
        point[key] = parse_rational(value.strip(), f"--eval {key}")
        if not 0 <= point[key] <= 1:
            raise ChainFileError(
                f"--eval {key}: probability {point[key]} outside [0, 1]"
            )
    missing = [lab for lab in spec.labels() if lab not in point]
    if missing:
        raise ChainFileError(f"--eval missing generators: {', '.join(missing)}")
    if sum(point.values()) != 1:
        # a point off the simplex is a verification-level failure, not a parse one
        raise NotStochastic(
            f"--eval probabilities sum to {sum(point.values())}, expected 1"
        )
    return point


def _numeric_point(chain: ChainFile, eval_arg) -> dict:
    if eval_arg:
        return _parse_eval(eval_arg, chain.spec)
    if all(g.prob is not None for g in chain.spec.generators):
        return chain.spec.numeric_point()
    raise ChainFileError(
        "chain has symbolic probabilities; pass --eval label=prob,..."
    )


def _seed(args, chain: ChainFile) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SGMC_SEED")
    if env is not None:
        return int(env)
    return int(chain.options.get("seed", DEFAULT_SEED))


def _at_least(value: int, low: int, option: str) -> int:
    if value < low:
        raise ValueError(f"{option} must be at least {low}, got {value}")
    return value


def _caps(args, chain: ChainFile) -> dict:
    caps = {}
    for key, default in (
        ("max_elements", DEFAULT_MAX_ELEMENTS),
        ("max_kr", DEFAULT_MAX_KR),
        ("max_mc", DEFAULT_MAX_MC),
    ):
        value = getattr(args, key)
        option = "--" + key.replace("_", "-")
        if value is None:
            value = int(chain.options.get(key, default))
            option = f"options.{key}"
        caps[key] = _at_least(value, 1, option)
    return caps


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    _at_least(args.points, 1, "--points")
    chain = load_chain_file(args.input)
    caps = _caps(args, chain)
    seed = _seed(args, chain)
    report = full_report(
        chain.spec,
        points=args.points,
        seed=seed,
        box_label=chain.box_label or "□",
        max_elements=caps["max_elements"],
        max_kr=caps["max_kr"],
        max_mc=caps["max_mc"],
    )
    erg = ergodicity(chain.spec)
    payload = report_dict(report)
    payload["ergodicity"] = erg
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    _write(text, args.out)
    if args.timings:
        for stage, seconds in report.timings.items():
            print(f"# {stage}: {seconds:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_mixing(args) -> int:
    _at_least(args.tmax, 0, "--tmax")
    chain = load_chain_file(args.input)
    n = len(chain.spec.states)
    if not 0 <= args.start < n:
        raise ValueError(
            f"--start must be a state index in 0..{n - 1}, got {args.start}"
        )
    caps = _caps(args, chain)
    point = _numeric_point(chain, args.eval)
    epsilon = parse_rational(args.epsilon, "--epsilon")
    s = build_semigroup(chain.spec, caps["max_elements"])
    if not s.minimal_ideal().is_left_zero:
        print(
            "warning: minimal ideal is not left zero; "
            "hitting-time statistics are not available for this chain",
            file=sys.stderr,
        )
        return EXIT_OK
    report = mixing_report(
        chain.spec,
        point,
        epsilon,
        args.tmax,
        start_state=args.start,
        result=stationary_left_zero(
            s, max_kr=caps["max_kr"], max_mc=caps["max_mc"]
        ),
    )
    lines = []
    lines.append("t    Pr(tau>=t)")
    for t, value in enumerate(report.tail):
        lines.append(f"{t:<4d} {str(value)} ({float(value):.6f})")
    lines.append("")
    for name, (rf, value) in report.expected_by_element.items():
        lines.append(f"E[tau | {name}] = {value} ({float(value):.6f})")
    lines.append(
        f"E[tau] = {report.expected_total} ({float(report.expected_total):.6f})"
    )
    lines.append(f"t_mix <= {report.tmix_bound} for epsilon = {report.epsilon}")
    lines.append("")
    lines.append("t    TV(T^t nu, Psi)      Pr(tau>t)            holds")
    for row in report.tv_rows:
        lines.append(
            f"{row.t:<4d} {float(row.tv):<20.12f} "
            f"{float(row.tail_bound):<20.12f} {row.holds}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _word_labels(word: str, labels) -> tuple:
    if word in labels:
        return (word,)
    if "," in word:
        parts = tuple(word.split(","))
    else:
        parts = tuple(word)
    for part in parts:
        if part not in labels:
            raise UnknownVertexWord(f"{part!r} is not a generator label")
    return parts


def cmd_export(args) -> int:
    chain = load_chain_file(args.input)
    caps = _caps(args, chain)
    s = build_semigroup(chain.spec, caps["max_elements"])
    if chain.box_label is not None:
        s = s.adjoin_zero(chain.box_label)
    kind = args.graph
    if kind == "rcay":
        g = right_cayley(s)
        blue = transition_edges(g, scc(g))
        text = render_dot(g, "rcay", blue_edges=blue)
    elif kind == "kr":
        g = kr_expand(s, caps["max_kr"])
        blue = transition_edges(g, scc(g))
        text = render_dot(g, "kr", blue_edges=blue)
    elif kind == "mc" or kind.startswith("loop:"):
        ideal = s.minimal_ideal()
        sinks = ideal.members if ideal.is_left_zero else frozenset()
        kr, mc, tree, _ = _expand(s, sinks, caps["max_kr"], caps["max_mc"])
        if kind == "mc":
            back = set(range(len(mc.edges))) - tree
            blue = transition_edges(mc, scc(mc))
            text = render_dot(mc, "mc", blue_edges=blue, red_dashed_edges=back)
        else:
            word = _word_labels(kind[5:], set(s.labels))
            target = next(
                (
                    vid
                    for vid in range(mc.n_vertices())
                    if mc.payloads[vid].word == word
                ),
                None,
            )
            if target is None:
                raise UnknownVertexWord(
                    f"no vertex {''.join(word)!r} in the expansion"
                )
            if kr.payloads[mc.payloads[target].kr_vertex].element not in ideal.members:
                raise UnknownVertexWord(
                    f"vertex {''.join(word)!r} does not end in the minimal ideal"
                )
            lg = pict(mc, simple_path_edges(mc)[target], verify_usp=False)
            flat, _end = flatten(lg)
            spine = set(range(len(lg.spine_labels)))
            text = render_dot(flat, "loop", blue_edges=spine)
    else:
        raise ChainFileError(f"unknown --graph kind {args.graph!r}")
    _write(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _at_least(args.points, 1, "--points")
    _at_least(args.maxlen, 0, "--maxlen")
    _at_least(args.series_order, 1, "--series-order")
    chain = load_chain_file(args.input)
    caps = _caps(args, chain)
    seed = _seed(args, chain)
    s = build_semigroup(chain.spec, caps["max_elements"])
    result = stationary(
        s,
        box_label=chain.box_label or "□",
        max_kr=caps["max_kr"],
        max_mc=caps["max_mc"],
    )
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
        except SgmcError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"pass {name}")

    check("normalization: masses sum to 1", lambda: _require(
        normalization_holds(result), "sum differs from 1"
    ))
    points = sample_simplex_points(chain.spec.labels(), args.points, seed)
    check(
        f"oracle equivalence at {args.points} points",
        lambda: verify_oracle(chain.spec, result, points),
    )
    check(
        f"path/Kleene/series consistency to length {args.maxlen}",
        lambda: verify_language_and_series(result, args.maxlen),
    )
    if result.case == "left_zero":
        check(
            f"tail sums below expectation to order {args.series_order}",
            lambda: _check_tail_expectation(result, points[0], args.series_order),
        )
    if failures:
        raise VerificationFailed(f"{failures} verification check(s) failed")
    return EXIT_OK


def _check_tail_expectation(result, point, order):
    """Partial sums of Pr(tau >= t) stay below E[tau] and approach it."""
    from .mixing import expected_tau, tail_table

    tails = tail_table([t.psi for t in result.terminals], point, order)
    partial = sum(tails[1:], Fraction(0))
    expected = Fraction(0)
    for name, rf in result.per_element.items():
        expected += rf.evaluate(point) * expected_tau(rf).evaluate(point)
    _require(partial <= expected, "truncated tail sum exceeds the expectation")
    _require(
        all(a >= b for a, b in zip(tails, tails[1:])),
        "tail is not monotone",
    )


def _require(condition, message):
    if not condition:
        raise VerificationFailed(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmc",
        description="stationary distributions of finite Markov chains "
        "via semigroup expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="chain JSON file")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-elements", type=int, dest="max_elements")
        p.add_argument("--max-kr", type=int, dest="max_kr")
        p.add_argument("--max-mc", type=int, dest="max_mc")

    p = sub.add_parser("analyze", help="full symbolic pipeline plus verification")
    common(p)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("mixing", help="hitting-time tail, E[tau], mixing bound")
    common(p)
    p.add_argument("--eval", help="evaluation point label=prob,label=prob,...")
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--tmax", type=int, default=10)
    p.add_argument("--start", type=int, default=0)
    p.set_defaults(fn=cmd_mixing)

    p = sub.add_parser("export", help="graph exports in DOT format")
    common(p)
    p.add_argument(
        "--graph",
        required=True,
        help="rcay | kr | mc | loop:<word>",
    )
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("verify", help="oracle and enumeration cross-checks")
    common(p)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--maxlen", type=int, default=10)
    p.add_argument("--series-order", type=int, dest="series_order", default=40)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ChainFileError, UnknownVertexWord, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (VerificationFailed, NotStochastic, NotLeftZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SgmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
