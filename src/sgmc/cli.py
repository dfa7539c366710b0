"""Command line front end: analyze, mixing, export, verify.

Chain files are JSON; probabilities are strings like "1/3" (or "sym" for a
purely symbolic generator) so nothing is ever rounded.  A generator whose
action is the string "box" stands for the adjoined zero; it takes part in
graph exports but not in the chain dynamics.

Exit codes: 0 ok, 1 malformed input (a usage error or an unwritable --out
too), 2 verification failure, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from inspect import signature

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
from .mixing import expected_total, mixing_report, tail_table
from .pipeline import (
    _element_of,
    _expand,
    build_semigroup,
    full_report,
    report_dict,
    stationary,
    verify_language_and_series,
    verify_oracle,
    sample_simplex_points,
    normalization_holds,
)
from .semigroup import BOX_LABEL, DEFAULT_MAX_ELEMENTS, IDENTITY_NAME

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAP = 3

OPTION_KEYS = ("max_elements", "max_kr", "max_mc", "seed")


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
    repeated = sorted({s for s in states if states.count(s) > 1})
    if repeated:
        raise ChainFileError(f"{path}: repeated state name {repeated[0]!r}")
    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise ChainFileError(f"{path}: 'generators' must be a nonempty list")
    n = len(states)
    generators = []
    box_label = None
    seen = set()
    numeric_total = Fraction(0)
    for k, entry in enumerate(gens_raw):
        where = f"generator #{k}"
        if not isinstance(entry, dict) or "label" not in entry:
            raise ChainFileError(f"{path}: {where} needs a 'label'")
        label = str(entry["label"])
        where = f"generator {label!r}"
        if not label or label != label.strip() or "," in label or "=" in label:
            raise ChainFileError(
                f"{path}: {where}: a label must be nonempty, hold no ',' or '=' "
                "and have no surrounding whitespace"
            )
        if label == IDENTITY_NAME:
            raise ChainFileError(
                f"{path}: {where}: the label is reserved for the adjoined identity"
            )
        if label in seen:
            raise ChainFileError(f"{path}: duplicate label in {where}")
        seen.add(label)
        prob_raw = entry.get("prob", "sym")
        if prob_raw == "sym":
            prob = None
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
    # the box generator is always "sym" and stays out of the dynamics
    if all(g.prob is not None for g in generators) and numeric_total != 1:
        raise ChainFileError(
            f"{path}: numeric probabilities sum to {numeric_total}, expected 1"
        )
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ChainFileError(f"{path}: 'options' must be an object")
    unknown = sorted(set(options) - set(OPTION_KEYS))
    if unknown:
        raise ChainFileError(f"{path}: unknown option {unknown[0]!r}")
    for key, value in options.items():
        # type(), not isinstance: JSON true and false load as bool, an int subclass
        if type(value) is not int or (value < 1 and key != "seed"):
            raise ChainFileError(
                f"{path}: options.{key} must be an integer"
                f"{'' if key == 'seed' else ' of at least 1'}, got {value!r}"
            )
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
        if key in point:
            raise ChainFileError(f"--eval names generator {key!r} twice")
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
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SGMC_SEED must be an integer, got {env!r}") from None
    return chain.options.get("seed", signature(full_report).parameters["seed"].default)


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
        if value is None:
            caps[key] = chain.options.get(key, default)
        else:
            caps[key] = _at_least(value, 1, "--" + key.replace("_", "-"))
    return caps


def _write(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
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
        box_label=chain.box_label or BOX_LABEL,
        **caps,
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
    try:
        report = mixing_report(
            chain.spec, point, epsilon, args.tmax, start_state=args.start, **caps
        )
    except NotLeftZero:
        print(
            "warning: minimal ideal is not left zero; "
            "hitting-time statistics are not available for this chain",
            file=sys.stderr,
        )
        return EXIT_OK
    lines = []
    lines.append("t    Pr(tau>=t)")
    for t, value in enumerate(report.tail):
        lines.append(f"{t:<4d} {str(value)} ({float(value):.6f})")
    lines.append("")
    for name, value in report.expected_by_element.items():
        if value is None:
            lines.append(f"E[tau | {name}] = undefined (mass 0)")
        else:
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
            raise UnknownVertexWord(
                f"{part!r} is not a generator label (separate labels with ',')"
            )
    return parts


def cmd_export(args) -> int:
    kind = args.graph
    if kind not in ("rcay", "kr", "mc") and not kind.startswith("loop:"):
        raise ChainFileError(f"unknown --graph kind {kind!r}")
    chain = load_chain_file(args.input)
    caps = _caps(args, chain)
    s = build_semigroup(chain.spec, caps["max_elements"])
    if chain.box_label is not None:
        s = s.adjoin_zero(chain.box_label)
    if kind in ("rcay", "kr"):
        g = right_cayley(s) if kind == "rcay" else kr_expand(s, caps["max_kr"])
        text = render_dot(g, kind, blue_edges=transition_edges(g, scc(g)))
    else:
        kr, mc, tree, _ = _expand(s, caps["max_kr"], caps["max_mc"])
        if kind == "mc":
            back = set(range(len(mc.edges))) - tree
            blue = transition_edges(mc, scc(mc))
            text = render_dot(mc, "mc", blue_edges=blue, red_dashed_edges=back)
        else:
            word = _word_labels(kind[5:], set(s.labels))
            # a vertex is named by its word, as labels form a prefix code
            name = "".join(word) or IDENTITY_NAME
            if name not in mc.names:
                raise UnknownVertexWord(f"no vertex {kind[5:]!r} in the expansion")
            target = mc.names.index(name)
            if _element_of(kr, mc, target) not in s.minimal_ideal().members:
                raise UnknownVertexWord(
                    f"vertex {name!r} does not end in the minimal ideal"
                )
            lg = pict(mc, simple_path_edges(mc)[target], verify_usp=False)
            flat, _end = flatten(lg)
            spine = set(range(len(lg.spine_labels)))
            text = render_dot(flat, "loop", blue_edges=spine)
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
        box_label=chain.box_label or BOX_LABEL,
        max_kr=caps["max_kr"],
        max_mc=caps["max_mc"],
    )
    lines = []

    def check(name, fn):
        try:
            fn()
        except CapExceeded:
            raise
        except SgmcError as exc:
            lines.append(f"FAIL {name}: {exc}\n")
        else:
            lines.append(f"pass {name}\n")

    # the lines checked so far are written when a cap stops the checks too
    try:
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
    finally:
        _write("".join(lines), args.out)
    failures = sum(line.startswith("FAIL ") for line in lines)
    if failures:
        raise VerificationFailed(f"{failures} verification check(s) failed")
    return EXIT_OK


def _check_tail_expectation(result, point, order):
    """Partial sums of Pr(tau >= t) stay below E[tau] and approach it."""
    tails = tail_table([t.psi for t in result.terminals], point, order)
    partial = sum(tails[1:], Fraction(0))
    expected = expected_total(result.per_element.values(), point)
    _require(partial <= expected, "truncated tail sum exceeds the expectation")
    _require(
        all(a >= b for a, b in zip(tails, tails[1:])),
        "tail is not monotone",
    )


def _require(condition, message):
    if not condition:
        raise VerificationFailed(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is malformed input: exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgmc",
        description="stationary distributions of finite Markov chains "
        "via semigroup expansions",
    )
    defaults = signature(full_report).parameters
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="chain JSON file")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--max-elements", type=int, dest="max_elements")
        p.add_argument("--max-kr", type=int, dest="max_kr")
        p.add_argument("--max-mc", type=int, dest="max_mc")

    p = sub.add_parser("analyze", help="full symbolic pipeline plus verification")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--points", type=int, default=defaults["points"].default)
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
        help="rcay | kr | mc | loop:<word>, where the word is one label, "
        "one-character labels run together (loop:ab) or labels separated "
        "by ',' (loop:2,10)",
    )
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("verify", help="oracle and enumeration cross-checks")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--points", type=int, default=defaults["points"].default)
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
    except SgmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
