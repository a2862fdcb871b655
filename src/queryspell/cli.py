"""Command-line entry point: the ``speller`` tool.

Subcommands: build-index, gen-data, train, correct, eval, serve, refresh.
Exit codes: 0 success, 1 runtime failure (one-line diagnostic on stderr),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import datagen
from .dictionary import (DEFAULT_MAX_EDIT_DISTANCE, DEFAULT_PREFIX_LENGTH,
                         build_delete_index, load_dictionary, load_dictionary_dir,
                         write_dictionary_dir)
from .errors import SpellerError
from .evaluate import evaluate, format_report, load_eval_records
from .features import DEFAULT_APPLICATIONS, DEFAULT_LOCALES, FeatureSchema, RequestContext
from .pipeline import (DEFAULT_MIN_NEW_TERM_COUNT, correct_query,
                       refresh_behavioral_stats)
from .ranker import Hyperparams, build_training_set, save_model, train
from .service import ServiceConfig, load_artifacts, load_config, run_server


def _context_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--locale", default="en", help="request locale tag")
    parser.add_argument("--application", default="stock", help="application tag")


def _cmd_build_index(args) -> int:
    dictionary = load_dictionary(args.lexicon, args.vocab, args.stats, args.locale)
    index = build_delete_index(dictionary, args.max_edit_distance, args.prefix_length)
    write_dictionary_dir(args.out_dir, dictionary, index)
    print(f"wrote {len(dictionary)} terms, {len(index)} index variants -> {args.out_dir}")
    return 0


def _cmd_gen_data(args) -> int:
    rng = random.Random(args.seed)
    queries = [line.strip() for line in
               Path(args.infile).read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.startswith("#")]
    errored = [datagen.inject_errors(q, rng, args.error_prob, args.locale)
               for q in queries]
    datagen.write_dataset(args.out, errored)
    print(f"wrote {len(errored)} corrupted queries -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    dictionary, index, _ = load_dictionary_dir(args.dict)
    schema = FeatureSchema(tuple(args.locales.split(",")),
                           tuple(args.applications.split(",")))
    context = RequestContext(args.locale, args.application)
    rows = [(corrupted, original)
            for corrupted, original, _ in datagen.load_dataset(args.data)]
    X, labels, schema = build_training_set(rows, dictionary, index, context, schema)
    hyper = Hyperparams(epochs=args.epochs, batch_size=args.batch_size,
                        learning_rate=args.learning_rate,
                        dropout_rate=args.dropout, seed=args.seed)
    model = train(X, labels, schema, hyper)
    save_model(model, args.out)
    print(f"trained on {len(labels)} examples -> {args.out}")
    return 0


def _corrector(args):
    """correct_query over the artifacts named by --artifacts, in the request
    context of --locale/--application."""
    config = ServiceConfig(artifact_dir=Path(args.artifacts), locale=args.locale,
                           application=args.application, tau=args.tau)
    artifacts = load_artifacts(config)
    context = RequestContext(args.locale, args.application)
    return lambda query: correct_query(query, context, artifacts)


def _cmd_correct(args) -> int:
    correct = _corrector(args)
    queries = args.queries or [line.rstrip("\n") for line in sys.stdin]
    for query in queries:
        if not query.strip():
            continue
        result = correct(query)
        confidence = min((tc.confidence for tc in result.tokens), default=1.0)
        print(f"{query}\t{result.corrected}\t{confidence:.4f}")
    return 0


def _cmd_eval(args) -> int:
    predictor = None
    if args.artifacts:
        correct = _corrector(args)
        predictor = lambda q: correct(q).corrected
    records = load_eval_records(args.data, predictor)
    report = evaluate(records)
    print(format_report(report))
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=1),
                                   encoding="utf-8")
    return 0


def _cmd_serve(args) -> int:
    config = load_config(args.config, artifact_dir=args.artifacts, listen=args.listen)
    run_server(config)
    return 0


def _cmd_refresh(args) -> int:
    dictionary, index, _ = load_dictionary_dir(args.artifacts)
    new_dict, new_index = refresh_behavioral_stats(
        args.log, dictionary, index, min_new_term_count=args.min_count)
    write_dictionary_dir(args.artifacts, new_dict, new_index)
    print(f"refreshed: {len(dictionary)} -> {len(new_dict)} terms, "
          f"{len(new_index)} index variants")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speller",
        description="Fast multilingual spellchecker for short search queries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="merge vocabulary sources into an artifact dir")
    p.add_argument("--lexicon", required=True, help="term<TAB>word_count TSV")
    p.add_argument("--vocab", action="append", default=[],
                   help="extra custom-vocabulary TSV (repeatable)")
    p.add_argument("--stats", default=None,
                   help="term<TAB>asset_frequency<TAB>download_count TSV")
    # Recorded in manifest.json; every other command reads them from there.
    p.add_argument("--locale", default="en", help="dictionary locale")
    p.add_argument("--prefix-length", type=int, default=DEFAULT_PREFIX_LENGTH)
    p.add_argument("--max-edit-distance", type=int, default=DEFAULT_MAX_EDIT_DISTANCE)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_build_index)

    p = sub.add_parser("gen-data", help="inject artificial spelling errors")
    p.add_argument("--in", dest="infile", required=True,
                   help="correctly spelled queries, one per line")
    p.add_argument("--out", required=True, help="output dataset TSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--error-prob", type=float, default=0.5,
                   help="per-token corruption probability")
    p.add_argument("--locale", default="en")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train the candidate ranker")
    p.add_argument("--data", required=True, help="gen-data output TSV")
    p.add_argument("--dict", required=True, help="artifact dir with dictionary.tsv")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--locales", default=",".join(DEFAULT_LOCALES))
    p.add_argument("--applications", default=",".join(DEFAULT_APPLICATIONS))
    _context_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("correct", help="correct queries from arguments or stdin")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--tau", type=float, default=None)
    _context_args(p)
    p.add_argument("queries", nargs="*")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("eval", help="evaluate corrections against gold queries")
    p.add_argument("--data", required=True, help="input<TAB>gold[<TAB>predicted] TSV")
    p.add_argument("--artifacts", default=None,
                   help="artifact dir (omit when the TSV carries predictions)")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    _context_args(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("serve", help="run the HTTP correction service")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--artifacts", default=None)
    p.add_argument("--listen", default=None, help="host:port")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("refresh", help="fold a query log into the artifacts")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--log", required=True, help="query<TAB>count TSV")
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_NEW_TERM_COUNT,
                   help="occurrences before a new term enters the dictionary")
    p.set_defaults(func=_cmd_refresh)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpellerError as exc:
        print(f"speller: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"speller: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
