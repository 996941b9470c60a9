#!/usr/bin/env python3
"""The anchoragg benchmark.

Three workloads on the synthetic corpus (``synth --docs 150``, then
``train``), each driven through the public CLI:

    synth150-baseline    topk --profile baseline --threads 1
    synth150-external    topk --profile optimized --threads 1, with the model
                         behind --external-cmd (bench/predictor_service.py)
    synth150-timeline    eval-aopc --terms --snapshots over the snapshot log
                         of an in-process optimized run

Run from the root of a checkout:

    python3 bench/run.py --workload synth150-baseline --seed 1 --seconds 30 --trace 0

A run pins itself and every process it starts to one CPU. It sets the inputs
up three times, then repeats the workload's command until ``--seconds`` have
passed, and at least three times, with a run of the reference task
(``bench/reference.py``) before the first execution and after each one.
Every output is checked against the digest recorded in ``bench/digests.json``
for the workload seeds. The last line of stdout is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (an untraced and a traced execution, see ``bench/traced.py``).
A readable report, with the machine, goes to stderr. Metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
N_SETUPS = 3
MIN_EXECUTIONS = 3
RUN_DEADLINE_S = 170.0

CLASS = "pos"
WORKLOADS = {
    "synth150-baseline": {"kind": "topk", "profile": "baseline", "external": False},
    "synth150-external": {"kind": "topk", "profile": "optimized", "external": True},
    "synth150-timeline": {"kind": "timeline", "external": False},
}
# The topk run that writes the timeline's snapshot log. Its outputs equal the
# external workload's, so that workload's recorded digest checks the log.
TIMELINE_LOG = {"kind": "topk", "profile": "optimized", "external": False}


# Training is deterministic: with no validation split its seed changes nothing.
TRAIN_SEED = 0


@dataclass(frozen=True)
class Seeds:
    """Workload seeds: corpus size and seed, topk seed."""

    docs: int = 150
    synth: int = 1
    topk: int = 7

    @property
    def key(self) -> str:
        return f"docs{self.docs}-synth{self.synth}-topk{self.topk}"


# Claims are re-checked on this pair, never tuned on it.
HELD_OUT = Seeds(synth=5, topk=11)


class BenchError(Exception):
    """The run cannot produce its metrics."""


@dataclass
class Execution:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def execute(argv: list, log: Path, deadline: float) -> Execution:
    """Run one process to completion; wall time, CPU time and peak RSS from wait4."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log.with_suffix(".out"), "w") as out, \
            open(log.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Execution(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss)


def stderr_tail(log: Path, lines: int = 5) -> str:
    text = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-lines:])


def cli(*args) -> list:
    return [sys.executable, "-m", "anchoragg.cli", *args]


def service_command(inputs: Path, out: Path) -> list[str]:
    return [sys.executable, str(BENCH / "predictor_service.py"),
            "--model", str(inputs / "model.json"), "--report", str(out / "service.json")]


def topk_command(spec: dict, seeds: Seeds, inputs: Path, out: Path) -> list:
    predictor = (["--external-cmd", shlex.join(service_command(inputs, out))]
                 if spec["external"] else ["--model", inputs / "model.json"])
    return cli("topk", "--corpus", inputs / "corpus.jsonl", "--format", "jsonl",
               *predictor, "--class", CLASS, "--k", 20, "--agg", "pr",
               "--alpha", 0.5, "--profile", spec["profile"], "--seed", seeds.topk,
               # one worker: a run is pinned to one CPU
               "--threads", 1, "--terms", out / "terms.json",
               "--snapshots", out / "snapshots.jsonl", "--counts", out / "counts.jsonl")


def workload_command(spec: dict, seeds: Seeds, inputs: Path, out: Path) -> list:
    if spec["kind"] == "topk":
        return topk_command(spec, seeds, inputs, out)
    return cli("eval-aopc", "--terms", inputs / "terms.json",
               "--snapshots", inputs / "snapshots.jsonl", "--class", CLASS,
               "--corpus", inputs / "corpus.jsonl", "--format", "jsonl",
               "--model", inputs / "model.json", "--out", out / "aopc.json",
               "--timeline-out", out / "timeline.csv")


def setup_commands(seeds: Seeds, d: Path) -> dict[str, list]:
    return {
        "synth": cli("synth", "--out", d / "corpus.jsonl", "--truth", d / "truth.json",
                     "--docs", seeds.docs, "--seed", seeds.synth),
        "train": cli("train", "--corpus", d / "corpus.jsonl", "--format", "jsonl",
                     "--out", d / "model.json", "--seed", TRAIN_SEED),
    }


# -- outputs -------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line]


def output_digest(kind: str, out: Path) -> str:
    """sha256 over a workload's outputs, wall-clock fields left out.

    topk: terms and scores, the counts file, the snapshots without ``t_sec``.
    timeline: the AOPC JSON and the timeline CSV without its ``t_sec`` column.
    """
    if kind == "topk":
        snapshots = read_jsonl(out / "snapshots.jsonl")
        for snap in snapshots:
            del snap["t_sec"]
        content = {"terms": json.loads((out / "terms.json").read_text(encoding="utf-8")),
                   "counts": read_jsonl(out / "counts.jsonl"),
                   "snapshots": snapshots}
    else:
        with open(out / "timeline.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        drop = rows[0].index("t_sec")
        content = {"aopc": json.loads((out / "aopc.json").read_text(encoding="utf-8")),
                   "timeline": [r[:drop] + r[drop + 1:] for r in rows]}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def input_digest(d: Path) -> str:
    h = hashlib.sha256()
    for name in ("corpus.jsonl", "truth.json", "model.json"):
        h.update((d / name).read_bytes())
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), inclusive method; the value itself for one sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def snapshot_metrics(path: Path) -> dict:
    """Anytime behaviour from a snapshot log: refresh gaps and convergence."""
    snaps = read_jsonl(path)
    times = [s["t_sec"] for s in snaps]
    gaps = [(b - a) * 1e3 for a, b in zip([0.0] + times, times)]
    words = [{t["word"] for t in s["topk"]} for s in snaps]
    first = len(snaps) - 1
    while first > 0 and words[first - 1] == words[-1]:
        first -= 1
    return {"doc_ms.p50": percentile(gaps, 50), "doc_ms.p95": percentile(gaps, 95),
            "calls_to_final": snaps[first]["calls"],
            "time_to_final_s": snaps[first]["t_sec"]}


def planted_recall(truth: Path, terms: Path) -> float:
    planted = json.loads(truth.read_text(encoding="utf-8"))["signal"][CLASS]
    words = {t["word"] for t in json.loads(terms.read_text(encoding="utf-8"))["terms"]}
    return len(words.intersection(planted)) / len(planted)


def topk_quality(inputs: Path, out: Path) -> tuple[int, float]:
    """(anchor decisions, AOPC of the final terms), scored with the library."""
    sys.path.insert(0, str(SRC))
    from anchoragg import CachingPredictor, TermList, aopc_k, load_corpus, load_model

    corpus = load_corpus(inputs / "corpus.jsonl", "jsonl")
    model = CachingPredictor(load_model(inputs / "model.json"))
    decisions = sum(len(d.words) for d in corpus if model.predict(d) == CLASS)
    terms = TermList.load(out / "terms.json")
    return decisions, aopc_k(terms, corpus, model, CLASS).value


def wait_for_service(out: Path, deadline: float) -> dict:
    """The CLI leaves its predictor process to exit on end of input; wait for it."""
    report_path = out / "service.json"
    while not report_path.exists():
        if time.monotonic() > deadline:
            raise BenchError("predictor service wrote no report")
        time.sleep(0.01)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    stat = Path(f"/proc/{report['pid']}/stat")
    stop = time.monotonic() + 5.0
    while stat.exists() and time.monotonic() < stop:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                break
        except (OSError, IndexError):
            break
        time.sleep(0.01)
    else:
        if stat.exists():
            os.kill(report["pid"], 9)
    return report


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "loadavg": list(os.getloadavg())}


# -- the run -------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seeds: Seeds, work: Path, deadline: float):
        self.spec = WORKLOADS[workload]
        self.seeds = seeds
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(seeds.key, {})
        self.recorded = recorded.get(workload)
        self.recorded_setup = recorded.get("synth150-external")
        self.digest: str | None = None
        self.references: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, what: str, digest: str, expected: str | None) -> None:
        if expected is not None and digest != expected:
            self.fail(f"{what}: digest {digest[:12]} != expected {expected[:12]}")

    def setup_step(self, name: str, argv: list, d: Path) -> None:
        if execute(argv, d / name, self.deadline).returncode != 0:
            raise BenchError(f"set-up step {name} failed: {stderr_tail(d / name)}")

    def setup(self) -> tuple[Path, float, list[dict]]:
        """Writes the inputs N_SETUPS times; returns the first set, the set-up
        time and the synth and train manifests.

        A set-up is synth and train, and for timeline also the snapshot log.
        The set-up time is the median over the set-ups.
        """
        times, manifests, digests = [], [], []
        for i in range(N_SETUPS):
            d = self.work / f"setup{i}"
            d.mkdir()
            self.attempted += 1
            start = time.perf_counter()
            for name, argv in setup_commands(self.seeds, d).items():
                self.setup_step(name, argv, d)
            if self.spec["kind"] == "timeline":
                self.setup_step("topk", topk_command(TIMELINE_LOG, self.seeds, d, d), d)
            times.append(time.perf_counter() - start)
            manifests.append({
                "synth": json.loads((d / "corpus.jsonl.manifest.json").read_text()),
                "train": json.loads((d / "model.json.manifest.json").read_text())})
            digests.append(input_digest(d))
            if self.spec["kind"] == "timeline":
                self.check(f"{d.name} snapshot log", output_digest("topk", d),
                           self.recorded_setup)
        if len(set(digests)) != 1:
            self.fail("set-ups wrote different inputs")
        return self.work / "setup0", statistics.median(times), manifests

    def measure(self, argv: list, out: Path) -> Execution:
        """One execution of the workload, its outputs checked."""
        self.attempted += 1
        ex = execute(argv, out / "cmd", self.deadline)
        if ex.returncode != 0:
            raise BenchError(f"{out.name} exited {ex.returncode}: "
                             f"{stderr_tail(out / 'cmd')}")
        if self.spec["external"]:
            report = wait_for_service(out, self.deadline)
            self.attempted += report["requests"]
            if report["errors"]:
                self.fail(f"{out.name}: {report['errors']} predictor requests failed")
        digest = output_digest(self.spec["kind"], out)
        self.check(out.name, digest, self.recorded)
        self.check(f"{out.name} vs first execution", digest, self.digest)
        self.digest = self.digest or digest
        return ex

    def reference(self) -> float:
        """Wall time of one run of the reference task, its output checked."""
        log = self.work / f"reference{len(self.references)}"
        ex = execute([sys.executable, BENCH / "reference.py"], log, self.deadline)
        output = log.with_suffix(".out").read_text(encoding="utf-8")
        expected = self.references[0] if self.references else output
        if ex.returncode != 0 or output != expected:
            raise BenchError(f"reference task failed: {stderr_tail(log)}")
        self.references.append(output)
        return ex.wall_s

    def execution_dir(self, name: str) -> Path:
        out = self.work / name
        out.mkdir()
        return out


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    inputs, setup_s, _ = run.setup()
    spec, execs = run.spec, []
    refs = [run.reference()]
    started = time.perf_counter()
    while len(execs) < MIN_EXECUTIONS or time.perf_counter() - started < seconds:
        out = run.execution_dir(f"run{len(execs)}")
        execs.append(run.measure(workload_command(spec, run.seeds, inputs, out), out))
        refs.append(run.reference())
    first = run.work / "run0"
    wall = statistics.median(e.wall_s for e in execs)
    if spec["kind"] == "topk":
        items, aopc = topk_quality(inputs, first)
        terms = first / "terms.json"
        observed = snapshot_metrics(first / "snapshots.jsonl")
        manifest = json.loads((first / "terms.json.manifest.json").read_text())
        observed.update(tokens_per_s=items / wall,
                        predictor_calls=manifest["predictor_calls"])
        if spec["external"]:
            observed["requests"] = json.loads((first / "service.json").read_text())["requests"]
    else:
        aopc = json.loads((first / "aopc.json").read_text(encoding="utf-8"))["value"]
        with open(first / "timeline.csv", encoding="utf-8") as handle:
            items = sum(1 for _ in handle) - 1
        terms = inputs / "terms.json"
        observed = {"snapshots_per_s": items / wall}
    metrics = {
        "setup_s": setup_s,
        "wall_rel": wall / statistics.median(refs),
        "aopc_final": aopc,
        "planted_recall": planted_recall(inputs / "truth.json", terms),
        "peak_rss_mb": statistics.median(e.maxrss_kb for e in execs) / 1024.0,
    }
    observed.update(wall_s=wall, reference_s=statistics.median(refs),
                    failed_frac=run.failed / run.attempted)
    details = {"executions": [
        {**asdict(e), "cpu_per_wall": e.cpu_s / e.wall_s} for e in execs],
        "reference_s": refs, "observed": observed}
    return metrics, details


def per_layer(run: Run) -> tuple[dict, dict]:
    inputs, _, manifests = run.setup()
    spec = run.spec
    out = run.execution_dir("untraced")
    plain = run.measure(workload_command(spec, run.seeds, inputs, out), out)
    traced_out = run.execution_dir("traced")
    argv = [sys.executable, BENCH / "traced.py",
            "--spec", json.dumps({**spec, "topk_seed": run.seeds.topk}),
            "--inputs", inputs, "--out", traced_out]
    if spec["external"]:
        argv += ["--service-cmd", json.dumps(service_command(inputs, traced_out))]
    traced = run.measure(argv, traced_out)
    layers = json.loads((traced_out / "layers.json").read_text(encoding="utf-8"))
    metrics = {
        "synth.s": statistics.median(m["synth"]["wall_seconds"] for m in manifests),
        "corpus.load_s": statistics.median(
            m["train"]["stage_seconds"]["load"] for m in manifests),
        "model.train_s": statistics.median(
            m["train"]["stage_seconds"]["train"] for m in manifests),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.accounted_frac": layers.pop("trace.accounted_s") / traced.wall_s,
    }
    if spec["kind"] == "topk":
        metrics.update({f"topk.{k}": v for k, v in
                        snapshot_metrics(out / "snapshots.jsonl").items()})
    metrics.update(layers)
    details = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    return metrics, details


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="anchoragg benchmark", epilog=f"held-out workload seeds: "
        f"--synth-seed {HELD_OUT.synth} --topk-seed {HELD_OUT.topk}")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed, recorded in the report; the program's "
                        "inputs come from the workload seeds below")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, default=Seeds.docs)
    parser.add_argument("--synth-seed", type=int, default=Seeds.synth)
    parser.add_argument("--topk-seed", type=int, default=Seeds.topk)
    args = parser.parse_args(argv)
    if not (SRC / "anchoragg" / "__init__.py").is_file():
        print(f"bench: no anchoragg sources under {SRC}", file=sys.stderr)
        return 2
    seeds = Seeds(args.docs, args.synth_seed, args.topk_seed)
    # SIGTERM unwinds like an error, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The workload and the reference task share one core, and so its load.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    deadline = time.monotonic() + RUN_DEADLINE_S
    report = {"workload": args.workload, "seed": args.seed, "seeds": asdict(seeds),
              "trace": args.trace, "machine": {**machine(), "pinned_cpu": cpu}}
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, seeds, work, deadline)
        if run.recorded is None:
            print(f"bench: no recorded digest for {args.workload} at {seeds.key}; "
                  "checking executions against each other only", file=sys.stderr)
        section = "per_layer" if args.trace else "end_to_end"
        measured, details = per_layer(run) if args.trace else end_to_end(run, args.seconds)
        units = declared(section)
        unknown = set(measured) - set(units)
        if unknown:
            raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # a layer the workload bypasses reports zero
        metrics = {name: {"value": measured.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
        report.update(details=details, digest=run.digest, problems=run.problems)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, indent=1), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
