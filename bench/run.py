#!/usr/bin/env python3
"""Benchmark of the textreuse pipeline on three synthetic workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

One benchmark run builds the workload's inputs from the seed, measures
set-up time, then runs the program in fresh interpreters (the checkout's
``src/`` first on PYTHONPATH, 2 workers) until ``--seconds`` have passed,
checks every output and prints the end-to-end metrics. ``--trace 1`` adds a
traced run and a serial alignment pass, and prints the per-layer metrics
instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--all`` runs every
workload and prints one table; ``--smoke`` runs every workload once at a
tiny size and checks that every metric prints with its unit. See
bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
WORKERS = 2
SETUP_PROBES = 5
MIN_RUNS = 3
# A benchmark run must end within 180 s: no program run starts after
# RUNS_UNTIL_S, and every child still running at KILL_AT_S is killed.
RUNS_UNTIL_S = 100.0
KILL_AT_S = 170.0
PROBE = "import textreuse, textreuse.cli; print(textreuse.__file__)"

# Span name -> layer, for the self-time table.
LAYER_OF = {
    "load_documents": "ingest",
    "load_corpus_report": "ingest",
    "normalize": "ingest",
    "sketch_corpus": "retrieval",
    "build_index": "retrieval",
    "retrieve_candidates": "retrieval",
    "retrieve_candidates_exact": "retrieval",
    "write_candidates": "retrieval",
    "read_candidates": "retrieval",
    "serial": "alignment",
    "align_pair": "alignment",
    "seed_matches": "alignment",
    "chunk_ngrams": "alignment",
    "extend": "alignment",
    "main": "pipeline",
    "run_pipeline": "pipeline",
    "run_retrieval": "pipeline",
    "run_alignment": "pipeline",
    "write_jsonl": "pipeline",
    "summarize_cases": "pipeline",
    "evaluate_cases": "metrics",
}
LAYERS = ("ingest", "retrieval", "alignment", "pipeline", "metrics")
# End-to-end metrics that print on every workload but measure nothing of its own there.
NOT_MEASURED = {
    "zipf-retrieve": {
        "char_f05": "nothing aligned: ceiling of a perfect aligner, follows planted_recall",
        "plagdet": "nothing aligned: ceiling of a perfect aligner, follows planted_recall",
    },
    "zipf-align": {"planted_recall": "1 by construction: the checkpoint lists every pair"},
}


class BenchError(RuntimeError):
    pass


@dataclass
class Child:
    status: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Run:
    child: Child
    out: Path
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    case_problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], out: Path, kill_at: float) -> Child:
    """Run one child to its end; wall time from spawn to exit, peak RSS from wait4.

    ``os.wait4`` reports the maximum RSS of this child and of the processes
    it waited for (its pool workers); ``RUSAGE_CHILDREN`` would carry one
    run's peak into the next.
    """
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(c) for c in cmd], cwd=ROOT, env=child_env(), stdout=so, stderr=se, start_new_session=True
        )
        timer = threading.Timer(max(1.0, kill_at - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        status=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=(out / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
        stderr=(out / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    )


# --- the program under test -------------------------------------------------


def program(workload: str, inputs, out: Path) -> tuple[str, list[str]]:
    """(kind, arguments) of one program run writing under ``out``."""
    if workload == "uniform-exact":
        return "cli", [
            "pipeline", "--input", str(inputs.corpus), "--output-dir", str(out),
            "--checkpoint-dir", str(out / "checkpoint"), "--retrieval-mode", "exact",
            "--workers", str(WORKERS), "--min-words", "0",
        ]  # fmt: skip
    if workload == "zipf-retrieve":
        return "cli", ["retrieve", "--input", str(inputs.corpus), "--output", str(out / "candidates.tsv"), "--min-words", "0"]
    return "align", [
        "--input", str(inputs.corpus), "--candidates", str(inputs.checkpoint),
        "--output", str(out / "cases.jsonl"),
    ]  # fmt: skip


def command(kind: str, args: list[str]) -> list[str]:
    if kind == "cli":
        return [sys.executable, "-m", "textreuse.cli", *args]
    return [sys.executable, str(BENCH / "align_run.py"), *args]


def outputs(workload: str, out: Path) -> dict[str, Path]:
    """Files that must be byte-identical across every run of a set."""
    if workload == "uniform-exact":
        return {"cases.jsonl": out / "cases.jsonl", "candidates.tsv": out / "checkpoint" / "candidates.tsv"}
    if workload == "zipf-retrieve":
        return {"candidates.tsv": out / "candidates.tsv"}
    return {"cases.jsonl": out / "cases.jsonl"}


def candidates_file(workload: str, inputs, out: Path) -> Path:
    return inputs.checkpoint if workload == "zipf-align" else outputs(workload, out)["candidates.tsv"]


# --- output checks ------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def printed_counts(stdout: str) -> dict[str, int]:
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    return {k: int(v) for k, _, v in (w.partition("=") for w in lines[-1].split()) if v.isdigit()}


def check_counts(workload: str, inputs, child: Child, out: Path) -> list[str]:
    """The counts printed (and written to the manifest) must match the output files."""
    printed = printed_counts(child.stdout)
    files = outputs(workload, out)
    expected: list[tuple[str, object, object]] = []
    if workload == "uniform-exact":
        counts = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["counts"]
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        cases = line_count(files["cases.jsonl"])
        candidates = line_count(files["candidates.tsv"])
        expected = [
            ("printed documents", printed.get("documents"), inputs.doc_count),
            ("manifest documents_used", counts["documents_used"], inputs.doc_count),
            ("publications.jsonl lines", line_count(out / "publications.jsonl"), inputs.doc_count),
            ("printed candidates", printed.get("candidates"), candidates),
            ("manifest candidate_pairs", counts["candidate_pairs"], candidates),
            ("printed cases", printed.get("cases"), cases),
            ("manifest cases", counts["cases"], cases),
            ("stats.json cases", stats["cases"], cases),
        ]
    elif workload == "zipf-retrieve":
        expected = [
            ("printed documents", printed.get("documents"), inputs.doc_count),
            ("printed candidates", printed.get("candidates"), line_count(files["candidates.tsv"])),
        ]
    else:
        expected = [
            ("printed pairs", printed.get("pairs"), line_count(inputs.checkpoint)),
            ("printed cases", printed.get("cases"), line_count(files["cases.jsonl"])),
        ]
    return [f"{what} is {got}, expected {want}" for what, got, want in expected if got != want]


def check_case_texts(path: Path, texts: dict[str, str]) -> list[str]:
    """Every case's text must equal normalized_text[begin:end] of its document."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            record = json.loads(line)
            for side in ("a", "b"):
                text = texts.get(record[f"doi_{side}"])
                begin, end = record[f"begin_{side}"], record[f"end_{side}"]
                if text is None or record[f"text_{side}"] != text[begin:end] or record[f"doc_length_{side}"] != len(text):
                    problems.append(f"{path.name}:{lineno}: side {side} does not match its document")
    return problems


def check_run(workload: str, inputs, run: Run, texts: dict[str, str], reference: Run | None) -> None:
    """Record the run's problems; ``reference`` is the first run of the set that wrote its outputs."""
    if run.child.status != 0:
        run.problems.append(f"exit status {run.child.status}: {run.child.stderr.strip()[-300:]}")
        return
    try:
        run.digests = {name: sha256(path) for name, path in outputs(workload, run.out).items()}
        run.problems += check_counts(workload, inputs, run.child, run.out)
    except (OSError, KeyError, ValueError) as exc:
        run.digests = {}
        run.problems.append(f"output missing or unreadable: {exc}")
        return
    if reference is not None and run.digests == reference.digests:
        run.case_problems = reference.case_problems
    else:
        if reference is not None:
            run.problems.append("outputs differ from the first run of the set")
        if "cases.jsonl" in run.digests:
            run.case_problems = check_case_texts(run.out / "cases.jsonl", texts)
    run.problems += run.case_problems


def read_pairs(path: Path) -> set[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return {tuple(line.split("\t")[:2]) for line in fh if line.strip()}


# --- quality ----------------------------------------------------------------


def quality(workload: str, inputs, out: Path, texts: dict[str, str], candidates: set) -> tuple[float, float, dict]:
    """(char F0.5, plagdet, evaluation span), macro-averaged over pairs.

    On zipf-retrieve nothing is aligned; the scores are those a perfect
    aligner would reach on the candidate set (gold spans of the planted pairs
    that survived retrieval). A detection on a pair without gold is scored
    against an empty gold annotation, so it costs precision.
    """
    from textreuse.alignment import case_from_record
    from textreuse.jsonl import read_jsonl
    from textreuse.metrics import GoldAnnotation, evaluate_cases

    gold = list(inputs.gold_annotations)
    if workload == "zipf-retrieve":
        records = []
        for ann in gold:
            if (ann.doi_a, ann.doi_b) not in candidates:
                continue
            for s in ann.spans:
                records.append({
                    "id": ann.pair_id,
                    "begin_a": s.begin_a, "end_a": s.end_a, "doi_a": ann.doi_a, "doc_length_a": len(texts[ann.doi_a]),
                    "begin_b": s.begin_b, "end_b": s.end_b, "doi_b": ann.doi_b, "doc_length_b": len(texts[ann.doi_b]),
                })  # fmt: skip
    else:
        records = list(read_jsonl(out / "cases.jsonl"))
    detections = [case_from_record(r) for r in records]
    unplanted = sorted({c.pair_key for c in detections} - {(g.doi_a, g.doi_b) for g in gold})
    gold += [GoldAnnotation(f"unplanted-{i:05d}", a, b, (), "no-plagiarism") for i, (a, b) in enumerate(unplanted)]
    start = time.perf_counter()
    report = evaluate_cases(gold, detections, with_granularity=True)
    end = time.perf_counter()
    span = {"id": 0, "parent": None, "name": "evaluate_cases", "start": start, "end": end, "dur": end - start,
            "self": end - start, "process": "bench", "layer": "metrics"}  # fmt: skip
    return report.overall.f_score, report.overall.plagdet, span


# --- traced run ---------------------------------------------------------------


def load_spans(path: Path, process: str) -> tuple[list[dict], dict]:
    blob = json.loads(path.read_text(encoding="utf-8"))
    spans = blob["spans"]
    for span in spans:
        span["process"] = process
        span["layer"] = LAYER_OF.get(span["name"], "other")
        span["dur"] = span["end"] - span["start"]
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["dur"]
    for span in spans:
        span["self"] = span["dur"] - children.get(span["id"], 0.0)
    return spans, blob["counters"]


def total(spans: list[dict], name: str, key: str = "dur") -> float:
    return sum(s[key] for s in spans if s["name"] == name)


def items(spans: list[dict], name: str) -> int:
    return sum(s.get("n", 0) for s in spans if s["name"] == name)


def nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer_metrics(ctx: dict) -> dict[str, float]:
    run_spans, run_counters = ctx["run_spans"], ctx["run_counters"]
    serial_spans, serial_counters = ctx["serial_spans"], ctx["serial_counters"]
    spans = run_spans + serial_spans + ctx["bench_spans"]
    pair_ms = [s["dur"] * 1000 for s in serial_spans if s["name"] == "align_pair"]
    align_pair_s = total(serial_spans, "align_pair")
    pipeline_align_s = total(run_spans, "run_alignment")
    pairs = len(pair_ms)
    pairs_with_cases = sum(1 for s in serial_spans if s["name"] == "align_pair" and s.get("n"))
    candidate_pairs = ctx["candidate_pairs"]
    all_pairs = math.comb(ctx["doc_count"], 2)
    planted = ctx["planted"]
    useful = pairs_with_cases if serial_spans else len(planted & ctx["candidates"])
    m = {
        "ingest.load_s": total(run_spans, "load_corpus_report"),
        "ingest.normalize_s": total(run_spans, "normalize"),
        "ingest.tokens": ctx["tokens"],
        "ingest.pickled_bytes_per_token": ctx["pickled_bytes"] / ctx["tokens"],
        "retrieval.exact_s": total(run_spans, "retrieve_candidates_exact"),
        "retrieval.sketch_s": total(run_spans, "sketch_corpus"),
        "retrieval.index_s": total(run_spans, "build_index", "self"),
        "retrieval.enumerate_s": total(run_spans, "retrieve_candidates"),
        "retrieval.write_s": total(run_spans, "write_candidates"),
        "retrieval.passages_sketched": items(run_spans, "sketch_corpus"),
        "retrieval.hash_values_kept": run_counters.get("hash_values_kept", 0),
        "retrieval.dropped_hashes": run_counters.get("dropped_hashes", 0),
        "retrieval.max_posting_len": run_counters.get("max_posting_len", 0),
        "retrieval.pair_visits": run_counters.get("pair_visits", 0),
        "retrieval.candidate_pairs": candidate_pairs,
        "retrieval.pruning_ratio": 1.0 - candidate_pairs / all_pairs,
        "retrieval.planted_recall": len(planted & ctx["candidates"]) / len(planted),
        "retrieval.useful_ratio": useful / candidate_pairs if candidate_pairs else 0.0,
        "alignment.pairs": pairs,
        "alignment.pair_ms_p50": statistics.median(pair_ms) if pair_ms else 0.0,
        "alignment.pair_ms_p99": nearest_rank(pair_ms, 0.99),
        "alignment.chunk_s": total(serial_spans, "chunk_ngrams"),
        "alignment.seed_s": total(serial_spans, "seed_matches", "self"),
        "alignment.extend_s": total(serial_spans, "extend"),
        "alignment.chunk_share": total(serial_spans, "chunk_ngrams") / align_pair_s if align_pair_s else 0.0,
        "alignment.ngrams_hashed": items(serial_spans, "chunk_ngrams"),
        "alignment.ngram_redundancy": (
            items(serial_spans, "chunk_ngrams") / serial_counters["distinct_ngrams"] if serial_spans else 0.0
        ),
        "alignment.seeds": items(serial_spans, "seed_matches"),
        "alignment.pairs_with_seeds": sum(1 for s in serial_spans if s["name"] == "seed_matches" and s.get("n")),
        "alignment.pairs_with_cases": pairs_with_cases,
        "alignment.cases": items(serial_spans, "align_pair"),
        "pipeline.retrieval_s": total(run_spans, "run_retrieval"),
        "pipeline.align_s": pipeline_align_s,
        "pipeline.emit_s": total(run_spans, "write_jsonl") + total(run_spans, "summarize_cases"),
        "pipeline.parallel_efficiency": align_pair_s / (WORKERS * pipeline_align_s) if pipeline_align_s else 0.0,
        "pipeline.batch_retries": run_counters["batch_retries"],
        "pipeline.cases_bytes": ctx["cases_bytes"],
        "metrics.evaluate_s": total(ctx["bench_spans"], "evaluate_cases"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self"] for s in spans if s["layer"] == layer)
    m["trace.wall_s"] = ctx["trace_wall_s"]
    m["trace.overhead_s"] = ctx["trace_wall_s"] - ctx["untraced_wall_s"]
    return m


def print_span_table(spans: list[dict], trace_wall_s: float) -> None:
    print("traced spans (self time = span minus its child spans):")
    print(f"  {'process':<8} {'layer':<10} {'span':<26} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    rows: dict[tuple[str, str, str], list[float]] = {}
    for s in spans:
        row = rows.setdefault((s["process"], s["layer"], s["name"]), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["dur"]
        row[2] += s["self"]
    for (process, layer, name), (calls, dur, self_s) in rows.items():
        print(f"  {process:<8} {layer:<10} {name:<26} {calls:>7} {dur:>10.4f} {self_s:>10.4f}")
    main_s = total(spans, "main")
    print(f"  traced run outside spans (interpreter start-up, imports, exit): {trace_wall_s - main_s:.4f} s")
    print("self time by layer: " + ", ".join(
        f"{layer} {sum(s['self'] for s in spans if s['layer'] == layer):.4f} s" for layer in LAYERS
    ))  # fmt: skip


# --- one benchmark run --------------------------------------------------------


def measure_setup(work: Path, kill_at: float, probes: int) -> list[float]:
    """Wall time of fresh interpreters importing textreuse.cli; the first one warms the bytecode cache."""
    times = []
    for i in range(probes + 1):
        child = run_child([sys.executable, "-c", PROBE], work / "setup", kill_at)
        if child.status != 0:
            raise BenchError(f"importing textreuse.cli failed: {child.stderr.strip()[-500:]}")
        imported = Path(child.stdout.strip()).resolve()
        if SRC.resolve() not in imported.parents:
            raise BenchError(f"textreuse was imported from {imported}, not from {SRC}")
        if i:
            times.append(child.wall_s)
    return times


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    from workloads import SIZES, build_inputs, planted_pairs

    began = time.monotonic()
    kill_at = began + KILL_AT_S
    work = WORK / f"{size_name}-{workload}-{seed}"
    inputs = build_inputs(workload, SIZES[size_name][workload], seed, work / "inputs")
    with open(inputs.corpus, encoding="utf-8") as fh:
        texts = {r["doi"]: r["text"] for r in map(json.loads, fh)}
    setup = measure_setup(work, kill_at, SETUP_PROBES if size_name == "full" else 1)

    kind = program(workload, inputs, work)[0]
    runs: list[Run] = []
    measuring = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - measuring < seconds:
        if runs and time.monotonic() - began + runs[-1].child.wall_s > RUNS_UNTIL_S:
            break
        out = work / f"run{len(runs)}"
        run = Run(run_child(command(kind, program(workload, inputs, out)[1]), out, kill_at), out)
        check_run(workload, inputs, run, texts, next((r for r in runs if r.digests), None))
        runs.append(run)
    measured_s = time.monotonic() - measuring

    ok = [r for r in runs if r.child.status == 0]
    reference = next((r for r in runs if r.digests), None)
    if reference is None:
        raise BenchError(f"every run of {workload} failed: {runs[0].problems}")
    planted = planted_pairs(inputs.gold_annotations)
    candidates = read_pairs(candidates_file(workload, inputs, reference.out))
    f05, plagdet, evaluate_span = quality(workload, inputs, reference.out, texts, candidates)
    end_to_end = {
        # The mean, not the median: on a shared 2-vCPU host the run-to-run noise is
        # short-lived and roughly symmetric, and over ten seeds the mean of one
        # benchmark run's program runs spread less than their median did.
        "wall_s": statistics.mean(r.child.wall_s for r in ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.child.peak_rss_mb for r in ok),
        "char_f05": f05,
        "plagdet": plagdet,
        "planted_recall": len(planted & candidates) / len(planted),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "runs": runs,
        "extra_runs": [],
        "measured_s": measured_s,
        "end_to_end": end_to_end,
        "digests": reference.digests,
        "per_layer": None,
    }
    if trace:
        ctx = {
            "candidates": candidates,
            "planted": planted,
            "bench_spans": [evaluate_span],
            "untraced_wall_s": end_to_end["wall_s"],
        }
        result["per_layer"] = traced(workload, inputs, work, kind, kill_at, reference, texts, ctx, result["extra_runs"])
    return result


def traced(workload, inputs, work: Path, kind: str, kill_at: float, reference: Run, texts, ctx: dict, extra_runs: list) -> dict:
    """Traced run plus serial alignment pass; returns the per-layer metrics.

    Both are appended to ``extra_runs`` and count as attempted runs.
    """
    from textreuse.pipeline import RunConfig, load_documents

    out = work / "traced"
    spans_path = out / "spans-run.json"
    run = Run(
        run_child([sys.executable, BENCH / "traced.py", "run", spans_path, kind, *program(workload, inputs, out)[1]], out, kill_at),
        out,
    )
    check_run(workload, inputs, run, texts, reference)
    extra_runs.append(run)
    if run.child.status != 0:
        raise BenchError(f"traced run failed: {run.problems}")
    run_spans, run_counters = load_spans(spans_path, "run")

    serial_spans: list[dict] = []
    serial_counters: dict = {}
    if workload != "zipf-retrieve":
        serial_out = work / "serial"
        serial_cases = serial_out / "cases.jsonl"
        cmd = [
            sys.executable, BENCH / "traced.py", "serial", serial_out / "spans-serial.json",
            inputs.corpus, candidates_file(workload, inputs, reference.out), serial_cases,
        ]  # fmt: skip
        serial = Run(run_child(cmd, serial_out, kill_at), serial_out)
        extra_runs.append(serial)
        if serial.child.status != 0:
            raise BenchError(f"serial pass failed: {serial.child.stderr.strip()[-300:]}")
        if sha256(serial_cases) != reference.digests["cases.jsonl"]:
            serial.problems.append("serial alignment pass found other cases than the pool run")
        serial_spans, serial_counters = load_spans(serial_out / "spans-serial.json", "serial")

    docs, _ = load_documents(RunConfig(input=str(inputs.corpus), output_dir=str(work), min_words=0))
    ctx.update(
        run_spans=run_spans,
        run_counters=run_counters,
        serial_spans=serial_spans,
        serial_counters=serial_counters,
        tokens=sum(len(d.tokens) for d in docs),
        pickled_bytes=sum(len(pickle.dumps(d)) for d in docs),
        candidate_pairs=len(ctx["candidates"]),
        doc_count=inputs.doc_count,
        cases_bytes=(reference.out / "cases.jsonl").stat().st_size if "cases.jsonl" in reference.digests else 0,
        trace_wall_s=run.child.wall_s,
    )
    spans = run_spans + serial_spans + ctx["bench_spans"]
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print_span_table(spans, run.child.wall_s)
    print(f"  spans written to {(work / 'spans.jsonl').relative_to(ROOT)}")
    return per_layer_metrics(ctx)


# --- reporting ----------------------------------------------------------------


def declared_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def failures(result: dict) -> tuple[int, int]:
    """(failed, attempted) over every run of a benchmark run, traced and serial included."""
    runs = result["runs"] + result["extra_runs"]
    return sum(1 for r in runs if r.problems), len(runs)


def contract_line(result: dict, trace: bool) -> dict:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    failed, attempted = failures(result)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def print_result(result: dict, trace: bool) -> None:
    runs = result["runs"]
    walls = [r.child.wall_s for r in runs]
    failed, attempted = failures(result)
    print(
        f"workload {result['workload']}: seed {result['seed']}, {len(runs)} program runs in "
        f"{result['measured_s']:.1f} s, {WORKERS} workers"
    )
    print("  wall_s of each run: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  wall_s median {statistics.median(walls):.4f} s, max {max(walls):.4f} s; wall_s below is the mean")
    for r in runs + result["extra_runs"]:
        for problem in r.problems:
            print(f"  FAILED {r.out.name}: {problem}")
    for name, digest in result["digests"].items():
        print(f"  sha256 {name}: {digest}")
    units = {m["name"]: m["unit"] for group in declared_metrics().values() for m in group}
    shown = dict(result["end_to_end"])
    if trace:
        shown.update(result["per_layer"])
    notes = NOT_MEASURED.get(result["workload"], {})
    for name, value in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<32} {value:>16.6f} {units.get(name, '')}{note}")
    print(f"  {'run_error_rate':<32} {failed / attempted:>16.6f} ratio ({failed} of {attempted} runs)")


def print_all(results: list[dict], trace: bool) -> None:
    units = {m["name"]: m["unit"] for group in declared_metrics().values() for m in group}
    names = list(results[0]["end_to_end"])
    if trace:
        names += list(results[0]["per_layer"])
    print(f"{'metric':<32} {'unit':<8}" + "".join(f" {r['workload']:>16}" for r in results))
    for name in names:
        values = []
        for r in results:
            value = (r["per_layer"] or {}).get(name, r["end_to_end"].get(name))
            values.append(f" {'n/a':>16}" if name in NOT_MEASURED.get(r["workload"], {}) else f" {value:>16.6f}")
        print(f"{name:<32} {units[name]:<8}" + "".join(values))
    rates = "".join(f" {failed / attempted:>16.6f}" for failed, attempted in map(failures, results))
    print(f"{'run_error_rate':<32} {'ratio':<8}" + rates)


def smoke() -> int:
    """Run every workload once at a tiny size, traced and untraced; check every metric prints with its unit."""
    declared = declared_metrics()
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, __file__, "--workload", workload, "--seed", "1",
                "--seconds", "0", "--trace", str(trace), "--size", "smoke",
            ]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                raise BenchError(f"{workload} trace={trace}: exit status {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            got = {name: v["unit"] for name, v in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"} or got != want:
                raise BenchError(f"{workload} trace={trace}: result keys or metric names/units differ")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                raise BenchError(f"{workload} trace={trace}: outputs failed their checks")
            if any(not isinstance(v["value"], (int, float)) for v in line["metrics"].values()):
                raise BenchError(f"{workload} trace={trace}: a metric value is not a number")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "textreuse" / "__init__.py").is_file():
        raise BenchError(f"no textreuse package under {SRC}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import textreuse

    if SRC.resolve() not in Path(textreuse.__file__).resolve().parents:
        raise BenchError(f"textreuse was imported from {textreuse.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    # Only the latest invocation's files are kept, so repeated runs do not fill the disk.
    shutil.rmtree(WORK, ignore_errors=True)
    if args.smoke:
        return smoke()
    trace = bool(args.trace)
    if args.all:
        results = [run_benchmark(w, args.seed, args.seconds, trace, args.size) for w in WORKLOADS]
        for result in results:
            print_result(result, trace)
        print_all(results, trace)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_benchmark(args.workload, args.seed, args.seconds, trace, args.size)
    print_result(result, trace)
    print(json.dumps(contract_line(result, trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
