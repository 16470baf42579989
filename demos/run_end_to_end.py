"""End-to-end walkthrough: generate a corpus with planted reuse, run the
detection pipeline on it, and score the result against the ground truth.

    python demos/run_end_to_end.py
"""

import json
import tempfile
from pathlib import Path

from textreuse import GenSpec, RunConfig, generate, run_pipeline
from textreuse.alignment import case_from_record
from textreuse.ingest import document_record
from textreuse.jsonl import write_jsonl
from textreuse.metrics import evaluate_cases, format_report_table

# A corpus of 60 synthetic documents with 15 planted verbatim reuse cases.
# Background text is i.i.d. vocabulary, so every detected case is either a
# plant or a false positive - the gold annotations are exact.
spec = GenSpec(
    doc_count=60,
    doc_tokens=(1000, 1600),
    vocab_size=8000,
    case_count=15,
    passage_tokens=(32, 48),
    seed=2024,
)
corpus, gold = generate(spec)
print(f"generated {len(corpus)} documents with {len(gold)} planted cases")

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    corpus_path = tmp / "corpus.jsonl"
    write_jsonl(corpus_path, (document_record(d) for d in corpus))

    # The default ngram retrieval keeps the document pairs that share a word
    # 3-gram, which every pair with a reuse case does.
    config = RunConfig(
        input=str(corpus_path),
        output_dir=str(tmp / "out"),
        workers=1,
        seed=42,
    )
    result = run_pipeline(config)

    counts = result.manifest["counts"]
    print(f"candidate pairs: {counts['candidate_pairs']} "
          f"(pruning ratio {counts['pruning_ratio']:.4f})")
    print(f"emitted cases:   {counts['cases']} -> {result.cases_path.name}")

    cases = [case_from_record(json.loads(line))
             for line in result.cases_path.read_text().splitlines()]
    report = evaluate_cases(gold, cases, with_granularity=True)
    print()
    print(format_report_table(report))

    # one emitted record, for a feel of the output schema
    first = json.loads(result.cases_path.read_text().splitlines()[0])
    print()
    print("sample case record:")
    print(f"  id        {first['id']}")
    print(f"  pair      {first['doi_a']} <-> {first['doi_b']}")
    print(f"  locators  a[{first['begin_a']}:{first['end_a']}] "
          f"b[{first['begin_b']}:{first['end_b']}]")
    print(f"  text_a    {first['text_a'][:60]}...")
