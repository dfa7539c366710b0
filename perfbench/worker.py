"""Worker process: sets one workload up and runs its items, one at a time.

Started by ``run.py`` with a pipe on stdin and stdout.  The first line it
reads is the configuration; it then imports sgmc from the checkout's
``src``, builds the workload's chains and precomputes what the workload
declares (all of this is set-up), and answers ``{"ready": true}``.  Each
following request runs one item in a fork of this process: the call into
sgmc's public API is timed, its output is checked by the benchmark's own
correctness gate, and one JSON line comes back.  An item past its deadline
is stopped by an interval timer and reported with the stage it was in.

Times are CPU seconds (user plus system) of the item process's one thread.
The program is single-threaded and does no I/O, so on an idle core they
equal wall time; unlike wall time they do not grow while a shared host
deschedules the process.  The deadline is a CPU-time timer for the same
reason.  The thread clock is read because, while a CPU-time timer is
armed, Linux advances the process clock only once per scheduler tick.
The worker and the item process time ``speed.reference_work`` between,
during and after set-up and items, and report times divided by the speed
factor of those samples (see ``speed.py``); the raw CPU seconds come
along as ``cpu_s``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import select
import signal
import statistics
import sys
import threading
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from corpus import LABELS  # noqa: E402
from tracer import Tracer  # noqa: E402


class ItemTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""

    def __init__(self, frames, at):
        super().__init__("deadline passed")
        self.frames = frames
        self.at = at


def _sgmc_frames(frame):
    """Qualified names of the sgmc frames on a stack, innermost first."""
    out = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("sgmc."):
            code = frame.f_code
            out.append(f"{module[5:]}.{getattr(code, 'co_qualname', code.co_name)}")
        frame = frame.f_back
    return out


def _raise_site_frames(exc):
    """The sgmc frames around the place an exception was raised."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return _sgmc_frames(tb.tb_frame)


def _on_deadline(_signum, frame):
    raise ItemTimeout(_sgmc_frames(frame), time.thread_time())


def _spec(actions):
    from sgmc.markov import ChainGenerator, MarkovChainSpec

    n = len(actions[0])
    return MarkovChainSpec(
        tuple(f"s{i}" for i in range(n)),
        tuple(
            ChainGenerator(LABELS[k], tuple(action), None)
            for k, action in enumerate(actions)
        ),
    )


def _point(raw):
    return {label: Fraction(value) for label, value in raw.items()}


def _image(word, actions, start):
    """State reached from start under an element named by its word.

    The element of word w1...wk is g_w1 * ... * g_wk and the right factor
    acts first, so the letters apply from last to first.
    """
    state = start
    for label in reversed(word):
        state = actions[label][state]
    return state


def _given(caps, name):
    """The cap as a positional argument when set, else nothing (the default)."""
    return (caps[name],) if name in caps else ()


class Workload:
    """One workload's chains, its call into sgmc, and its correctness gate."""

    def __init__(self, cfg):
        from sgmc import cli

        self.cfg = cfg
        self.params = cfg["params"]
        chain_dir = os.path.join(cfg["root"], "src", "sgmc", "chains")
        self.state = []
        for item in cfg["items"]:
            if "file" in item:
                chain = cli.load_chain_file(os.path.join(chain_dir, item["file"]))
                spec, box = chain.spec, chain.box_label or "□"
            else:
                spec, box = _spec(item["actions"]), "□"
            self.state.append({"item": item, "spec": spec, "box": box})

    def caps(self):
        return dict(self.params.get("caps", {}))


class Analyze(Workload):
    def call(self, st):
        from sgmc import pipeline

        return pipeline.full_report(
            st["spec"],
            points=self.params["points"],
            seed=self.cfg["seed"],
            box_label=st["box"],
            **self.caps(),
        )

    def check(self, st, report):
        from sgmc import markov

        spec = st["spec"]
        masses = report.result.per_element
        if self.cfg.get("tamper") and len(masses) > 1:
            names = list(masses)
            values = [masses[n] for n in names]
            masses = dict(zip(names, values[1:] + values[:1]))
        actions = {g.label: g.action for g in spec.generators}
        if any(len(label) != 1 for label in actions):
            return "element names cannot be split into labels"
        tm = markov.transition_matrix(spec)
        for raw in st["item"]["gate_points"]:
            point = _point(raw)
            values = {name: rf.evaluate(point) for name, rf in masses.items()}
            if sum(values.values()) != 1 or min(values.values()) < 0:
                return f"masses at {raw} are not a distribution"
            oracle = markov.stationary_oracle(tm, point)
            for start in range(len(spec.states)):
                push = {state: Fraction(0) for state in spec.states}
                for name, value in values.items():
                    push[spec.states[_image(name, actions, start)]] += value
                if push != oracle:
                    return f"masses disagree with the eigenvector at {raw} from {spec.states[start]}"
        return None


class Verify(Workload):
    def __init__(self, cfg):
        from sgmc import pipeline

        super().__init__(cfg)
        for st in self.state:
            s = pipeline.build_semigroup(st["spec"])
            st["result"] = pipeline.stationary(s, box_label=st["box"])

    def call(self, st):
        from sgmc import pipeline

        return pipeline.verify_language_and_series(st["result"], self.params["maxlen"])

    def check(self, st, checks):
        expected = self.params["expected_checks"][st["item"]["id"]]
        if checks != expected:
            return f"{checks} terminals checked, expected {expected}"
        return None


class Mixing(Workload):
    def __init__(self, cfg):
        from sgmc import pipeline

        super().__init__(cfg)
        results = {}
        for st in self.state:
            chain = st["item"]["chain"]
            if chain not in results:
                s = pipeline.build_semigroup(st["spec"])
                results[chain] = pipeline.stationary(s)
            st["result"] = results[chain]

    def call(self, st):
        from sgmc import mixing

        return mixing.mixing_report(
            st["spec"],
            _point(st["item"]["point"]),
            Fraction(self.params["epsilon"]),
            self.params["tmax"],
            result=st["result"],
        )

    def check(self, st, report):
        tmax = self.params["tmax"]
        tail = report.tail
        if len(tail) != tmax + 1 or tail[0] != 1:
            return "tail table has the wrong length or does not start at 1"
        if any(not 0 <= p <= 1 for p in tail) or any(a < b for a, b in zip(tail, tail[1:])):
            return "tail is not a non-increasing probability sequence"
        rows = report.tv_rows
        if len(rows) != tmax + 1 or not all(r.holds and r.tv <= r.tail_bound for r in rows):
            return "a total-variation row does not hold"
        q = report.expected_total / report.epsilon
        if report.expected_total <= 0 or report.tmix_bound != -(-q.numerator // q.denominator):
            return "mixing bound is not ceil(E[tau] / epsilon)"
        return None


class Expand(Workload):
    """Semigroup closure through Pict and Algorithms 1-2; no rational function."""

    def call(self, st):
        from sgmc import expansions, loopkleene, pipeline
        from sgmc.errors import NotUsp

        caps = self.caps()
        s = pipeline.build_semigroup(st["spec"], *_given(caps, "max_elements"))
        ideal = s.minimal_ideal()
        if ideal.is_left_zero:
            members = ideal.members
        else:
            s = s.adjoin_zero(st["box"])
            members = {s.zero_id}
        kr = expansions.kr_expand(s, *_given(caps, "max_kr"))
        kr = kr.without_out_edges(
            [v for v in range(kr.n_vertices()) if kr.payloads[v].element in members]
        )
        mc, _tree = expansions.mc_expand(kr, *_given(caps, "max_mc"))
        if not expansions.check_usp(mc, max_paths=10 * max(mc.n_vertices(), 1)):
            raise NotUsp("McCammond expansion failed the unique simple path check")
        unique = expansions.simple_path_edges(mc)
        terminals = []
        for vid in range(mc.n_vertices()):
            if kr.payloads[mc.payloads[vid].kr_vertex].element in members:
                lg = loopkleene.pict(
                    mc, unique[vid], False, max_vertices=caps.get("max_loop", 10**6)
                )
                terminals.append((vid, loopkleene.algorithm2(loopkleene.algorithm1(lg), lg)))
        return mc, terminals

    def check(self, st, out):
        from sgmc import loopkleene

        mc, terminals = out
        if not terminals:
            return "no terminal vertex"
        n = self.params["gate_maxlen"]
        for vid, expr in terminals:
            if loopkleene.kleene_enumerate(expr, n) != loopkleene.enumerate_path_words(mc, vid, n):
                return f"expression of {mc.names[vid]} and its Mc paths differ up to length {n}"
        return None


WORKLOADS = {"analyze": Analyze, "verify": Verify, "mixing": Mixing, "expand": Expand}


def run_item(workload, index, tracer, deadline):
    from sgmc.errors import CapExceeded, VerificationFailed

    st = workload.state[index]
    item_id = st["item"]["id"]
    gc.collect()
    if tracer:
        tracer.begin_item(item_id)
    reply = {"id": item_id, "detail": None, "stop": None}
    frames = None
    sampler = speed.Sampler()
    # each clock read comes before the item's objects are freed
    start = time.thread_time()
    try:
        signal.setitimer(signal.ITIMER_PROF, deadline)
        try:
            with contextlib.nullcontext() if tracer else sampler:
                out = workload.call(st)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        end = time.thread_time()
        reply["status"] = "ok"
    except ItemTimeout as exc:
        end = exc.at
        reply["status"], frames = "timeout", exc.frames
    except CapExceeded as exc:
        end = time.thread_time()
        reply["status"], frames = "cap", _raise_site_frames(exc)
        reply["detail"] = str(exc)
    except VerificationFailed as exc:
        end = time.thread_time()
        reply["status"], reply["detail"] = "wrong", str(exc)
    except Exception as exc:  # any other failure of the program is an unsolved item
        end = time.thread_time()
        reply["status"], reply["detail"] = "error", f"{type(exc).__name__}: {exc}"
    reply["time_s"] = end - start - sampler.spent
    reply["factors"] = sampler.factors
    if tracer:
        stop_spans = tracer.stop_spans
        counters = tracer.end_item()
    if frames is not None:
        reply["stop"] = {
            "frame": frames[0] if frames else None,
            "caller": next((f for f in frames if not f.startswith("algebra.")), None),
        }
        if tracer:
            reply["stop"].update(
                span=stop_spans[-1] if stop_spans else None,
                open=stop_spans or [],
                counters=counters,
            )
    if reply["status"] == "ok":
        if tracer:
            tracer.begin_item(f"gate:{item_id}")
        try:
            problem = workload.check(st, out)
        except Exception as exc:  # a gate that cannot run has not passed
            problem = f"gate raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_item()
        if problem:
            reply["status"], reply["detail"] = "wrong", problem
    return reply


def run_forked(workload, index, tracer, deadline, backstop_s):
    """Run one item in a fork of this process and return its reply.

    Every item thus starts from the same post-set-up memory state, however
    much an earlier item allocated.  The fork is the only item process
    alive; one that has not answered within backstop_s wall seconds is
    killed and counts as a timeout.
    """
    item_id = workload.state[index]["item"]["id"]
    first_span = len(tracer.spans) if tracer else 0
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            reply = run_item(workload, index, tracer, deadline)
            if tracer:
                reply["spans"] = tracer.spans[first_span:]
                reply["counters"] = {
                    k: v for k, v in tracer.item_counters.items() if k in (item_id, f"gate:{item_id}")
                }
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(reply))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        answered = select.select([pipe], [], [], backstop_s)[0]
        if not answered:
            os.kill(pid, signal.SIGKILL)
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if data:
        reply = json.loads(data)
    else:
        reply = {
            "id": item_id,
            "status": "timeout" if not answered else "error",
            "detail": "killed by the wall-clock backstop" if not answered
            else f"item process ended with wait status {status}",
            "stop": None,
            "time_s": usage.ru_utime + usage.ru_stime,
        }
    if tracer:
        tracer.spans.extend(reply.pop("spans", []))
        tracer.item_counters.update(reply.pop("counters", {}))
    reply["rss_mb"] = usage.ru_maxrss / 1024
    return reply


def main():
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # anything the library prints goes to stderr

    def send(obj):
        protocol.write(json.dumps(obj) + "\n")

    sampler = speed.Sampler(speed.SETUP_EVERY_S).__enter__()
    cfg = json.loads(sys.stdin.readline())
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import sgmc

    where = os.path.dirname(os.path.abspath(sgmc.__file__))
    if where != os.path.join(os.path.abspath(src), "sgmc"):
        raise SystemExit(f"sgmc imported from {where}, not from {src}")
    tracer = None
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install(sgmc)
    workload = WORKLOADS[cfg["workload"]](cfg)
    if tracer:
        tracer.end_item()
    signal.signal(signal.SIGPROF, _on_deadline)
    if threading.active_count() != 1:
        raise SystemExit("the item process must be single-threaded to fork")
    setup_s = time.process_time() - sampler.spent
    sampler.__exit__()
    pacer = speed.Pacer()
    factor = statistics.mean(sampler.factors + [pacer.after() for _ in range(3)])
    # forks share the set-up objects; keep the collector off them
    gc.collect()
    gc.freeze()
    send({"ready": True, "setup_s": setup_s / factor, "cpu_s": setup_s})
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "run":
            before = pacer.before()
            deadline = float(workload.params["deadline_s"]) * before
            if not tracer:
                deadline *= speed.stretch(before)
            reply = run_forked(workload, request["index"], tracer, deadline, request["backstop_s"])
            factor = statistics.mean([before, *reply.pop("factors", []), pacer.after()])
            if reply["status"] == "timeout":
                factor = before  # the factor its deadline was set with
            reply.update(cpu_s=reply["time_s"], time_s=reply["time_s"] / factor, factor=factor)
            send(reply)
        elif request["op"] == "finish":
            send(
                {
                    "spans": tracer.span_rows() if tracer else [],
                    "counters": tracer.item_counters if tracer else {},
                }
            )
            break


if __name__ == "__main__":
    main()
