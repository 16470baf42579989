"""Traced runs: spans around calls into textreuse's public functions.

Nothing in ``src/`` is instrumented. Each public function listed below is
replaced, in every loaded ``textreuse`` module that refers to it, by a
wrapper that records a span (name, parent, start, end) and the size of its
result. Spans stay in memory and are written out once, at exit.

    python bench/traced.py run SPANS {cli|align} ARGS...
        Runs ``textreuse.cli`` (or ``align_run``) with ARGS, exactly as the
        untraced run does, with spans around the ingest, retrieval and
        pipeline calls.
    python bench/traced.py serial SPANS CORPUS CANDIDATES CASES
        Single-threaded alignment of every candidate pair through
        ``run_alignment`` with one worker, which aligns in this process, with
        spans around ``align_pair``, ``seed_matches``, ``chunk_ngrams`` and
        ``extend``; writes the cases it finds.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import sys
from contextlib import contextmanager
from time import perf_counter

# Public functions wrapped in each mode, by defining module.
RUN_TARGETS = {
    "textreuse.pipeline": (
        "run_pipeline",
        "load_documents",
        "run_retrieval",
        "run_alignment",
        "summarize_cases",
    ),
    "textreuse.ingest": ("load_corpus_report", "normalize"),
    "textreuse.retrieval": (
        "sketch_corpus",
        "build_index",
        "retrieve_candidates",
        "retrieve_candidates_exact",
        "write_candidates",
        "read_candidates",
    ),
    "textreuse.jsonl": ("write_jsonl",),
}
SERIAL_TARGETS = {"textreuse.alignment": ("align_pair", "seed_matches", "chunk_ngrams", "extend")}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.results: dict[str, object] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, keep_result: bool = False):
        name = fn.__name__
        if inspect.isgeneratorfunction(fn):
            # One span per item, so the consumer's work between items is not
            # charged to the generator.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    with self.span(name) as record:
                        try:
                            item = next(items)
                        except StopIteration:
                            record["n"] = 0
                            return
                        record["n"] = 1
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if isinstance(result, (list, set)):
                record["n"] = len(result)
            elif isinstance(result, int) and not isinstance(result, bool):
                record["n"] = result
            if keep_result:
                self.results[name] = result
            return result

        return wrapper

    def install(self, targets: dict[str, tuple[str, ...]], keep: tuple[str, ...] = ()) -> None:
        """Replace each target function, by identity, wherever a loaded module refers to it."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name.startswith("textreuse") or name == "align_run")
        ]
        for module_name, names in targets.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(original, keep_result=name in keep)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def dump(self, path: str, counters: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


class _RetryCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.retries = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "retrying" in record.getMessage():
            self.retries += 1


def traced_run(spans_path: str, program: str, args: list[str]) -> int:
    if program == "cli":
        from textreuse.cli import main
    elif program == "align":
        from align_run import main
    else:
        raise SystemExit(f"unknown program {program!r}")

    retries = _RetryCounter()
    logging.getLogger("textreuse").addHandler(retries)
    tracer = Tracer()
    tracer.install(RUN_TARGETS, keep=("build_index",))
    with tracer.span("main"):
        status = main(args)

    counters = {"batch_retries": retries.retries}
    index = tracer.results.get("build_index")
    if index is not None:
        lengths = [len(entries) for entries in index.postings.values()]
        counters.update(
            hash_values_kept=len(lengths),
            dropped_hashes=index.dropped_hashes,
            max_posting_len=max(lengths, default=0),
            pair_visits=sum(n * (n - 1) // 2 for n in lengths),
        )
    tracer.dump(spans_path, counters)
    return status


def serial_pass(spans_path: str, corpus: str, candidates: str, cases_out: str) -> int:
    from textreuse import pipeline
    from textreuse.alignment import case_record
    from textreuse.jsonl import write_jsonl
    from textreuse.retrieval import read_candidates

    config = pipeline.RunConfig(input=corpus, output_dir=".", min_words=0, workers=1)
    docs, _ = pipeline.load_documents(config)
    pairs = read_candidates(candidates)

    tracer = Tracer()
    tracer.install(SERIAL_TARGETS)
    with tracer.span("serial"):
        cases = pipeline.run_alignment(docs, pairs, config)
    write_jsonl(cases_out, (case_record(c) for c in cases))

    params = config.alignment_params()
    stride = params.ngram_size - params.ngram_overlap
    tokens = {doc.doi: len(doc.tokens) for doc in docs}
    involved = {doi for pair in pairs for doi in pair.key}
    distinct_ngrams = sum(len(range(0, tokens[doi] - params.ngram_size + 1, stride)) for doi in involved)
    tracer.dump(spans_path, {"distinct_ngrams": distinct_ngrams})
    return 0


def main(argv: list[str]) -> int:
    mode, spans_path, *rest = argv
    if mode == "run":
        return traced_run(spans_path, rest[0], rest[1:])
    if mode == "serial":
        return serial_pass(spans_path, *rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
