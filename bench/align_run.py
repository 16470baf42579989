"""Align a candidate checkpoint the way ``textreuse align`` does, with 2 workers.

``textreuse align`` has no ``--workers`` flag and falls back to
``os.cpu_count()``, so the benchmark drives the same public calls
(``load_documents`` -> ``read_candidates`` -> ``run_alignment`` ->
``write_jsonl``) through ``RunConfig(workers=WORKERS)``.

    python bench/align_run.py --input CORPUS --candidates TSV --output CASES
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from textreuse import alignment, jsonl, pipeline, retrieval

WORKERS = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--candidates", required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    config = pipeline.RunConfig(
        input=args.input,
        output_dir=str(Path(args.output).parent),
        min_words=0,
        workers=WORKERS,
    )
    config.validate()
    docs, _ = pipeline.load_documents(config)
    pairs = retrieval.read_candidates(args.candidates)
    cases = pipeline.run_alignment(docs, pairs, config)
    jsonl.write_jsonl(args.output, (alignment.case_record(c) for c in cases))
    print(f"pairs={len(pairs)} cases={len(cases)} -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
