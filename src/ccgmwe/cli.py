"""Command-line interface.

Each pipeline stage is exposed as a subcommand operating on the file
formats documented in treebank.py, so a full experiment can be reproduced
either with `run --config ...` or by chaining the individual stages.

At module level this imports only recognition, whose tables argparse
offers as choices.  Each `_run_*` handler imports the stage modules it
calls, so that a subcommand, which the chain starts as a fresh process,
compiles and runs only the modules of its own stage.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import recognition


def _add_split(sub):
    cmd = sub.add_parser("split", help="split a treebank by sentence-id ranges")
    cmd.add_argument("--treebank", required=True)
    cmd.add_argument("--train", required=True, help="id ranges, e.g. 1-40")
    cmd.add_argument("--dev", default="")
    cmd.add_argument("--test", required=True)
    cmd.add_argument("--output-dir", required=True)
    cmd.set_defaults(run=_run_split)


def _run_split(args):
    from . import pipeline, treebank
    texts = {}          # split name -> the rendered text of its sentences
    for name, record in pipeline.split_records(
            treebank.iter_treebank(args.treebank), args.train, args.dev,
            args.test):
        if name is not None:
            texts.setdefault(name, []).append(
                treebank.render_treebank([record]))
    os.makedirs(args.output_dir, exist_ok=True)
    for name, pieces in texts.items():
        treebank.write_text(os.path.join(args.output_dir,
                                         "treebank_%s.txt" % name), pieces)


def _add_recognize(sub):
    cmd = sub.add_parser("recognize", help="detect MWE occurrences")
    source = cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--treebank", help="treebank whose leaves are scanned")
    source.add_argument("--tokens", help="token file to scan instead")
    cmd.add_argument("--lexicon", required=True)
    cmd.add_argument("--preset", choices=sorted(recognition.PRESETS),
                     help="a recognizer preset; excludes the three flags below")
    cmd.add_argument("--detector", choices=recognition.DETECTORS)
    cmd.add_argument("--filters", help="comma-separated filter list")
    cmd.add_argument("--resolver", choices=recognition.RESOLVERS)
    cmd.add_argument("--output", required=True)
    cmd.set_defaults(run=_run_recognize, usage_error=cmd.error)


def _numbered(sentences):
    """{sentence id: [token]} for token lists, numbered 1..n."""
    return {str(i): tokens for i, tokens in enumerate(sentences, 1)}


def _run_recognize(args):
    from . import pipeline, treebank
    flags = {name: value for name, value in vars(args).items()
             if name in ("detector", "filters", "resolver") and value is not None}
    if args.preset and flags:
        args.usage_error("argument --%s: not allowed with argument --preset"
                         % next(iter(flags)))
    config = (recognition.PRESETS[args.preset] if args.preset
              else pipeline.config_from_values(flags).recognizer)
    lexicon = treebank.read_lexicon(args.lexicon)
    if args.treebank is not None:
        sentences = ((r.sid, r.tokens)
                     for r in treebank.iter_treebank(args.treebank))
    else:
        sentences = _numbered(treebank.read_tokens(args.tokens)).items()
    treebank.write_occurrences(args.output, {
        sid: recognition.recognize(lexicon, words, config)
        for sid, words in sentences})


def _add_collapse(sub):
    cmd = sub.add_parser("collapse", help="collapse MWEs in trees and dependencies")
    cmd.add_argument("--treebank", required=True)
    cmd.add_argument("--dependencies", help="gold dependencies to collapse; "
                     "extracted from the trees when omitted")
    cmd.add_argument("--occurrences", required=True)
    cmd.add_argument("--output-dir", required=True)
    cmd.set_defaults(run=_run_collapse)


def _run_collapse(args):
    from . import pipeline, treebank
    occurrences = treebank.read_occurrences(args.occurrences)
    deps = (treebank.read_dependencies(args.dependencies)
            if args.dependencies else None)
    trees, deps_b, tokens = [], {}, []
    stats = ["# id\tkept\tdiscarded\tcycles\n"]
    for c in pipeline.collapse_corpus(treebank.iter_treebank(args.treebank),
                                      occurrences, deps):
        trees.append(treebank.render_treebank([c.record]))
        deps_b[c.record.sid] = c.deps
        tokens.append(c.record.tokens)
        stats.append("%s\t%d\t%d\t%d\n"
                     % (c.record.sid, len(c.outcome.kept),
                        len(c.outcome.discarded), c.cycles))
    os.makedirs(args.output_dir, exist_ok=True)
    for write, name, value in (
            (treebank.write_text, "treebank_b.txt", trees),
            (treebank.write_dependencies, "deps_b.deps", deps_b),
            (treebank.write_tokens, "tokens_b.txt", tokens),
            (treebank.write_text, "collapse_stats.tsv", stats)):
        write(os.path.join(args.output_dir, name), value)


def _add_train(sub):
    cmd = sub.add_parser("train", help="train the generative parser")
    cmd.add_argument("--treebank", required=True)
    cmd.add_argument("--smoothing", type=float, default=0.1)
    cmd.add_argument("--output", required=True)
    cmd.set_defaults(run=_run_train)


def _run_train(args):
    from . import parser, treebank
    model = parser.train(treebank.iter_treebank(args.treebank), args.smoothing)
    parser.save_model(args.output, model)


def _add_parse(sub):
    cmd = sub.add_parser("parse", help="parse a token file")
    cmd.add_argument("--model", required=True)
    cmd.add_argument("--tokens", required=True)
    cmd.add_argument("--ids", help="file with one sentence id per line; "
                     "defaults to 1..n")
    cmd.add_argument("--output", required=True, help="dependency output")
    cmd.add_argument("--trees", help="also write the derivations here")
    cmd.set_defaults(run=_run_parse)


def _run_parse(args):
    from . import parser, pipeline, treebank
    model = parser.load_model(args.model)
    sentences = treebank.read_tokens(args.tokens)
    corpus = _numbered(sentences)
    if args.ids:
        ids = treebank.read_ids(args.ids)
        if len(ids) != len(sentences):
            raise pipeline.PipelineError(
                "parse", "%s has %d ids for %d sentences in %s"
                % (args.ids, len(ids), len(sentences), args.tokens))
        corpus = dict(zip(ids, sentences))
    trees = {}          # token tuple -> the rendered tree of its parse

    def keep(key, tree):
        trees[key] = treebank.render_tree(tree)

    deps = pipeline.parse_corpus(model, corpus, "parse", {},
                                 built=keep if args.trees else None)[0]
    treebank.write_dependencies(args.output, deps)
    if args.trees:
        treebank.write_text(args.trees, [
            "ID %s\n%s\n" % (sid, trees[tuple(words)])
            for sid, words in corpus.items() if tuple(words) in trees])


def _add_extract(sub):
    cmd = sub.add_parser("extract-deps", help="extract dependencies from trees")
    cmd.add_argument("--treebank", required=True)
    cmd.add_argument("--output", required=True)
    cmd.set_defaults(run=_run_extract)


def _run_extract(args):
    from . import pipeline, treebank
    treebank.write_dependencies(args.output, pipeline.extract_corpus(
        treebank.iter_treebank(args.treebank)))


def _add_combine(sub):
    cmd = sub.add_parser("combine", help="combine baseline and collapsed-model output")
    cmd.add_argument("--out-a", required=True, help="dependencies on original tokens")
    cmd.add_argument("--out-b", required=True, help="dependencies on collapsed tokens")
    cmd.add_argument("--occurrences", required=True)
    cmd.add_argument("--tokens", required=True,
                     help="original token file (restores unit tokens)")
    cmd.add_argument("--scheme", required=True, choices=recognition.SCHEMES)
    cmd.add_argument("--output", required=True)
    cmd.set_defaults(run=_run_combine)


def _run_combine(args):
    from . import pipeline, treebank
    combined = pipeline.combine_corpus(
        treebank.read_dependencies(args.out_a),
        treebank.read_dependencies(args.out_b),
        treebank.read_occurrences(args.occurrences), args.scheme,
        treebank.read_tokens(args.tokens), args.tokens, args.out_b)
    treebank.write_dependencies(args.output, combined)


def _add_eval(sub):
    cmd = sub.add_parser("eval", help="score dependencies against gold")
    cmd.add_argument("--system", required=True)
    cmd.add_argument("--gold", required=True)
    cmd.add_argument("--labeled", action="store_true")
    cmd.add_argument("--per-sentence", help="write per-sentence counts here")
    cmd.set_defaults(run=_run_eval)


def _run_eval(args):
    from . import evaluation, treebank
    system = treebank.read_dependencies(args.system)
    gold = evaluation.gold_keys(treebank.read_dependencies(args.gold),
                                labeled=args.labeled)
    report = evaluation.score(system, gold, labeled=args.labeled)
    sys.stdout.write("P\t%.4f\nR\t%.4f\nF1\t%.4f\ncorrect\t%d\nattempted\t%d\n"
                     "gold\t%d\nP_undefined\t%d\n"
                     % (report.precision, report.recall, report.f1,
                        report.correct, report.attempted, report.gold,
                        int(report.undefined_precision)))
    if args.per_sentence:
        treebank.write_counts(args.per_sentence, report.per_sentence)


def _add_sigtest(sub):
    cmd = sub.add_parser("sigtest", help="one-tailed randomized shuffling test")
    cmd.add_argument("--x", required=True, help="per-sentence counts of system X")
    cmd.add_argument("--y", required=True, help="per-sentence counts of system Y")
    cmd.add_argument("--iterations", type=int, default=10000)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(run=_run_sigtest)


def _run_sigtest(args):
    from . import evaluation, treebank
    result = evaluation.sig_test(treebank.read_counts(args.x),
                                 treebank.read_counts(args.y),
                                 iterations=args.iterations, seed=args.seed)
    sys.stdout.write("p\t%.4f\nobserved_diff\t%.4f\niterations\t%d\n"
                     "exhaustive\t%d\n"
                     % (result.p_value, result.observed_diff,
                        result.iterations, int(result.exhaustive)))


def _add_run(sub):
    cmd = sub.add_parser("run", help="run a full experiment from a config file")
    cmd.add_argument("--config", action="append", required=True,
                     help="flat key=value file; repeat to layer presets")
    cmd.set_defaults(run=_run_run)


def _run_run(args):
    from . import pipeline
    config = pipeline.read_config(args.config)
    # the objects of a run live to its end and form no cycles, so a sweep
    # of the cyclic collector would free nothing: it is off while the
    # pipeline runs, whatever collections the interpreter made before
    enabled = gc.isenabled()
    gc.disable()
    try:
        summary = pipeline.run_pipeline(config)["summary"]
    finally:
        if enabled:
            gc.enable()
    sys.stdout.write(summary)


def main(argv=None):
    root = argparse.ArgumentParser(
        prog="ccgmwe",
        description="MWE collapsing and evaluation toolkit for CCG parsing")
    sub = root.add_subparsers(dest="command", required=True)
    for add in (_add_split, _add_recognize, _add_collapse, _add_train,
                _add_parse, _add_extract, _add_combine, _add_eval,
                _add_sigtest, _add_run):
        add(sub)
    args = root.parse_args(argv)
    from .treebank import PipelineError     # every handler loads treebank
    try:
        args.run(args)
    except PipelineError as exc:
        sys.stderr.write("error %s\n" % exc)
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write("error [%s] %s\n" % (args.command, exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
