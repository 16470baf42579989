"""Command-line interface.

Subcommands: normalize, retrieve, align, pipeline, evaluate, gen-corpus, stats.
Pipeline options can also come from a key=value config file; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .alignment import case_from_record, case_record
from .ingest import document_record
from .jsonl import read_lines, read_records, write_json, write_jsonl
from .pipeline import (
    OUTPUT_MODES,
    RETRIEVAL_MODES,
    PipelineError,
    RunConfig,
    load_documents,
    peak_rss_mb,
    publication_record,
    run_alignment,
    run_pipeline,
    run_retrieval,
    summarize_cases,
)
from .retrieval import read_candidates, write_candidates

log = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textreuse",
        description="Detect reused text passages across a plain-text corpus.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize a corpus and emit publication records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="normalized corpus (jsonl)")
    p.add_argument("--publications", help="optional publication-record output (jsonl)")
    _word_filter_flags(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("retrieve", help="compute candidate document pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="candidate pair file (tsv)")
    _word_filter_flags(p)
    _retrieval_flags(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("align", help="align candidate pairs into reuse cases")
    p.add_argument("--input", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--output", required=True, help="case file (jsonl)")
    _word_filter_flags(p)
    _alignment_flags(p)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("pipeline", help="run the full pipeline")
    p.add_argument("--input")
    p.add_argument("--output-dir")
    p.add_argument("--config", help="key=value file with RunConfig entries")
    p.add_argument("--checkpoint-dir")
    p.add_argument("--workers", type=int, help="accepted; alignment runs in one process")
    _word_filter_flags(p)
    _retrieval_flags(p)
    _alignment_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score a case file against gold annotations")
    p.add_argument("--cases", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--output", help="report records (jsonl); table prints to stdout")
    p.add_argument("--micro", action="store_true", help="micro-average instead of macro")
    p.add_argument("--granularity", action="store_true", help="include granularity and plagdet")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus with gold annotations")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--doc-tokens", type=int, nargs=2, default=(1000, 2000), metavar=("LO", "HI"))
    p.add_argument("--vocab-size", type=int, default=10000)
    p.add_argument("--cases", type=int, help="number of planted cases")
    p.add_argument("--reuse-rate", type=float, help="fraction of pairs with planted reuse")
    p.add_argument("--passage-tokens", type=int, nargs=2, default=(32, 48), metavar=("LO", "HI"))
    p.add_argument("--obfuscation", choices=("none", "random"), default="none")
    p.add_argument("--intensity", type=float, default=0.0, help="uniform edit-event probability")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("stats", help="summarize a case file")
    p.add_argument("--cases", required=True)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_stats)

    return parser


# Pipeline-parameter flags default to None, "not given": their defaults are
# RunConfig's, applied by _config.
def _word_filter_flags(p) -> None:
    p.add_argument("--min-words", type=int)
    p.add_argument("--max-words", type=int)


def _retrieval_flags(p) -> None:
    p.add_argument(
        "--retrieval-mode",
        choices=RETRIEVAL_MODES,
        help="ngram (default): pairs sharing a word n-gram, n = min(3, ngram size); "
        "minhash, exact: bag-of-words reference modes",
    )
    p.add_argument("--passage-size", type=int)
    p.add_argument("--num-hashes", type=int)
    p.add_argument("--min-shared-terms", type=int)
    p.add_argument("--df-cap", type=int)
    p.add_argument("--seed", type=int)


def _alignment_flags(p) -> None:
    p.add_argument("--ngram-size", type=int)
    p.add_argument("--ngram-overlap", type=int)
    p.add_argument("--max-gap", type=int)
    p.add_argument("--min-seeds", type=int)
    p.add_argument("--output-mode", choices=OUTPUT_MODES)


def _config(args, **values) -> RunConfig:
    """Validated RunConfig: ``values`` with every flag given on the command line laid over them."""
    for name in _CONFIG_FIELDS:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    missing = [name for name in ("input", "output_dir") if not values.get(name)]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")
    config = RunConfig(**values)
    config.validate()
    return config


def cmd_normalize(args) -> int:
    config = _config(args, output_dir=str(Path(args.output).parent), min_words=0)
    docs, counts = load_documents(config)
    write_jsonl(args.output, (document_record(doc, text=doc.normalized_text) for doc in docs))
    if args.publications:
        write_jsonl(args.publications, (publication_record(doc) for doc in docs))
    print(
        f"documents={counts['documents_loaded']} kept={counts['documents_used']} "
        f"malformed={counts['records_malformed']} duplicates={counts['duplicate_dois']} -> {args.output}"
    )
    log.info("normalize peak RSS %.1f MB", peak_rss_mb())
    return 0


def cmd_retrieve(args) -> int:
    config = _config(args, output_dir=str(Path(args.output).parent))
    docs, counts = load_documents(config)
    pairs = run_retrieval(docs, config)
    write_candidates(args.output, pairs)
    total = len(docs) * (len(docs) - 1) // 2
    ratio = 1.0 - len(pairs) / total if total else 1.0
    print(
        f"documents={counts['documents_used']} candidates={len(pairs)} "
        f"pruning_ratio={ratio:.4f} -> {args.output}"
    )
    log.info("retrieve peak RSS %.1f MB", peak_rss_mb())
    return 0


def cmd_align(args) -> int:
    config = _config(args, output_dir=str(Path(args.output).parent))
    docs, _ = load_documents(config)
    pairs = read_candidates(args.candidates)
    cases = run_alignment(docs, pairs, config)
    include_text = config.output_mode == "full"
    write_jsonl(args.output, (case_record(c, include_text) for c in cases))
    print(f"pairs={len(pairs)} cases={len(cases)} -> {args.output}")
    log.info("align peak RSS %.1f MB", peak_rss_mb())
    return 0


def _config_line(line: str) -> tuple[str, object] | None:
    """One ``key=value`` line of a config file, the value read as JSON when
    it parses and as a string otherwise; None for a comment."""
    line = line.strip()
    if line.startswith("#"):
        return None
    if "=" not in line:
        raise ValueError("expected key=value")
    key, _, raw = line.partition("=")
    key = key.strip()
    if key not in _CONFIG_FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        return key, json.loads(raw)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested deeper than the parser goes
        return key, raw


def _read_config_file(path: str) -> dict:
    return dict(item for item in read_lines(path, _config_line) if item is not None)


def cmd_pipeline(args) -> int:
    config = _config(args, **(_read_config_file(args.config) if args.config else {}))
    result = run_pipeline(config)
    counts = result.manifest["counts"]
    print(
        f"documents={counts['documents_used']} candidates={counts['candidate_pairs']} "
        f"pruning_ratio={counts['pruning_ratio']} cases={counts['cases']} -> {config.output_dir}"
    )
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import evaluate_cases, format_report_table, load_gold, report_records

    gold = load_gold(args.gold)
    cases = read_records(args.cases, case_from_record)
    report = evaluate_cases(
        gold,
        cases,
        average="micro" if args.micro else "macro",
        with_granularity=args.granularity,
    )
    if args.output:
        write_jsonl(args.output, report_records(report))
    print(format_report_table(report))
    return 0


def cmd_gen_corpus(args) -> int:
    from .metrics import write_gold
    from .synthgen import GenSpec, ObfuscationIntensity, generate, spec_record

    intensity = ObfuscationIntensity.uniform(args.intensity)
    spec = GenSpec(
        doc_count=args.docs,
        doc_tokens=tuple(args.doc_tokens),
        vocab_size=args.vocab_size,
        reuse_rate=args.reuse_rate,
        case_count=args.cases,
        passage_tokens=tuple(args.passage_tokens),
        obfuscation=args.obfuscation,
        intensity=intensity,
        seed=args.seed,
    )
    corpus, gold = generate(spec)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_dir / "corpus.jsonl", (document_record(d) for d in corpus))
    write_gold(out_dir / "gold.jsonl", gold)
    write_json(out_dir / "genspec.json", spec_record(spec))
    print(f"documents={len(corpus)} planted_cases={len(gold)} -> {out_dir}")
    return 0


def cmd_stats(args) -> int:
    summary = summarize_cases(args.cases)
    if args.output:
        write_json(args.output, summary)
    else:
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
