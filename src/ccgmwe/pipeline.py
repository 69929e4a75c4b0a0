"""Experiment pipeline: split, recognize, collapse, train, parse, combine,
evaluate and significance-test one recognizer configuration end to end.

The pipeline trains a baseline model on the original treebank and a second
model on the MWE-collapsed treebank, then evaluates along two axes.
Against the collapsed gold standard it compares parsing collapsed input
(the before-parsing route) with collapsing parser output (the after-parsing
route), for both gold-sibling and fully-collapsed test data.  Against the
original gold standard it evaluates the three model-combination schemes.
Each corpus stage is one function shared with the subcommands, every
artifact is written in the formats they consume, and the whole run is a
pure function of the configuration and input files.

`run_pipeline` writes exactly the files of ARTIFACTS.  Before any work it
stops if the output path cannot be a directory, or if it holds anything
but files of ARTIFACTS.  It writes into a `.staging-*` directory in the
output, then moves each file in and removes the other files of ARTIFACTS
there.  A failure or Ctrl-C removes the staging directory: before the
moves the output is left as it was, during them without report.tsv and
summary.txt, which go first and come back last.  A killed run leaves its
staging directory, which stops the next run until it is removed.

No derivation tree outlives its sentence: `split` and `collapse` iterate
split_records and collapse_corpus, which yield per sentence, and keep each
sentence's rendered text, as `run` does.  `run` holds each edge once:

* one pass over the treebank: each sentence is split, recognized, its
  gold dependencies extracted and collapsed, as the subcommands would,
  and its trees counted for models A and B.  Its treebank text and
  occurrences are written to the staging directory as it goes.  A test
  sentence leaves its tokens, occurrences, kept MWEs and gold
  dependencies; every other sentence only its counts.
* parse passes: each model's memo keeps a token sequence's dependencies
  or failure, not its tree.  Parse-a collapses each tree as it is built,
  and a parsed edge equal to one of its pass's gold is that gold object.
* combination and scoring: dependencies, tokens, occurrences and the
  models.  An edge that collapsing or combining leaves in place is the
  object it came from, and the combination makes one pass per occurrence
  set for all three schemes.  Every artifact but report.tsv and
  summary.txt is then written, and its data let go.
* significance tests: the per-sentence counts of the 7 tested rows alone.

At module level this imports only treebank and recognition, which the
configuration and split need.  Each corpus stage imports the stage module
it calls (collapse, parser or evaluation) when it runs, so that a
subcommand loads the modules of its own stage and no others.
"""

from __future__ import annotations

import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from functools import partial

from . import recognition, treebank
from .records import Record
from .treebank import PipelineError


class ExperimentConfig(Record):
    __slots__ = ("treebank", "lexicon", "output", "train", "dev", "test",
                 "recognizer", "smoothing", "seed", "iterations")

    def __init__(self, treebank="", lexicon="", output="out", train="",
                 dev="", test="", recognizer=None, smoothing=0.1, seed=0,
                 iterations=10000):
        super().__init__(treebank, lexicon, output, train, dev, test,
                         recognition.RecognizerConfig() if recognizer is None
                         else recognizer, smoothing, seed, iterations)


def _listed(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


# config key -> converter of its value; detector, filters and resolver set
# the fields of ExperimentConfig.recognizer, the others their namesakes
CONFIG_KEYS = {"treebank": str, "lexicon": str, "output": str, "train": str,
               "dev": str, "test": str, "detector": str, "filters": _listed,
               "resolver": str,
               "smoothing": lambda text: treebank.check_smoothing(float(text)),
               "seed": lambda text: treebank.check_seed(int(text)),
               "iterations": lambda text: treebank.check_iterations(int(text))}


def read_config(paths):
    """Assemble a configuration from flat key=value files; later files
    override earlier ones, so recognizer presets can be layered on top of
    a base configuration."""
    values = {}
    for path in paths:
        with treebank.Lines(path, partial(PipelineError, "config")) as lines:
            for line in lines:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, equals, value = line.partition("=")
                if not equals:
                    raise ValueError("expected key=value")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise ValueError("unknown key %r" % key)
                values[key] = value.strip()
    return config_from_values(values)


def config_from_values(values):
    """Build the configuration from read_config's key=value strings; a
    value that does not convert raises PipelineError naming its key."""
    config = ExperimentConfig()
    recognizer = {}             # the recognizer's fields set so far
    for key, value in values.items():
        try:
            value = CONFIG_KEYS[key](value)
            if key in ("detector", "filters", "resolver"):
                # rebuilt to re-validate; the fields set earlier are valid
                recognizer[key] = value
                config.recognizer = recognition.RecognizerConfig(**recognizer)
            else:
                setattr(config, key, value)
        except ValueError as exc:
            raise PipelineError("config", "%s: %s" % (key, exc)) from exc
    return config


def parse_id_spec(spec):
    """Parse a split specification like "1-40,55" into a set of ints.

    Raises ValueError naming the part for a non-numeric bound or a
    reversed range such as "5-1".
    """
    ids = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise ValueError("id range %r is not numeric" % part) from None
        if last < first:
            raise ValueError("id range %r is reversed" % part)
        ids.update(range(first, last + 1))
    return ids


def split_records(records, train, dev, test):
    """Yield (name of its split or None, record) for each record under the
    id ranges of the three split specs, as it reads `records`.  A malformed
    or overlapping spec, a non-numeric id or an empty training or test split
    raises PipelineError."""
    specs = {"train": train, "dev": dev, "test": test}
    id_sets = {}
    for name, spec in specs.items():
        try:
            id_sets[name] = parse_id_spec(spec) if spec else set()
        except ValueError as exc:
            raise PipelineError("split", "%s split: %s" % (name, exc)) from exc
    for first, second in (("train", "dev"), ("train", "test"), ("dev", "test")):
        if id_sets[first] & id_sets[second]:
            raise PipelineError("split", "%s and %s splits overlap"
                                % (first, second))
    found = set()
    for record in records:
        try:
            number = int(record.sid)
        except ValueError:
            raise PipelineError("split", "sentence id %r is not numeric"
                                % record.sid) from None
        name = next((n for n in specs if number in id_sets[n]), None)
        found.add(name)
        yield name, record
    for name, split in (("train", "training"), ("test", "test")):
        if name not in found:
            raise PipelineError("split", "empty %s split" % split)


# ----------------------------------------------------------------------
# Corpus stages, shared by run_pipeline and the subcommands.  A corpus is a
# {sentence id: value} dict in corpus order; a treebank is read one
# SentenceRecord at a time, and a stage that takes one yields per sentence.
# ----------------------------------------------------------------------

@contextmanager
def _stage(stage, sid=None):
    """Re-raise an OSError or ValueError in the block as PipelineError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise PipelineError(stage, str(exc), sid) from exc


def extract_corpus(records):
    """{sentence id: [Dependency]} of each record's tree."""
    from . import parser
    return {r.sid: parser.extract_dependencies(r.tree) for r in records}


class Collapsed(Record):
    """One collapsed sentence: its record, dependencies, tree-collapse
    outcome (kept and discarded MWEs) and count of two-way edges."""

    __slots__ = ("record", "deps", "outcome", "cycles")


def collapse_corpus(records, occurrences, deps=None):
    """Yield the Collapsed of each record as it reads `records`: the
    sibling MWEs collapsed in its tree and dependencies.

    `occurrences` maps sentence ids to occurrences read from a file, which
    recognition.rebind_tokens checks and re-binds to the record's tokens.
    `deps` maps every record's id to its dependencies; when it is None,
    each tree's are extracted.  A sentence that fails its checks raises
    PipelineError; so do, once every record is read, occurrences for an id
    that names no record and dependencies for other ids than the records'.
    """
    if deps is None:
        from . import parser
    ids = set()
    for r in records:
        ids.add(r.sid)
        if deps is not None and r.sid not in deps:
            continue                    # reported below
        with _stage("collapse", r.sid):
            yield collapse_record(r, recognition.rebind_tokens(
                occurrences.get(r.sid, []), r.tokens),
                parser.extract_dependencies(r.tree) if deps is None
                else deps[r.sid])
    with _stage("collapse"):
        orphans = sorted(set(occurrences) - ids)
        if orphans:
            raise ValueError("occurrences for sentence ids not in the "
                             "treebank: %s" % ", ".join(orphans))
        if deps is not None:
            treebank.check_ids(deps, ids,
                               "dependency ids differ from the treebank's")


def collapse_record(record, occurrences, deps):
    """The Collapsed of one record, given its occurrences as
    recognition.recognize returns them: the step collapse_corpus, and the
    single pass and after-parsing collapse of run_pipeline, take for each
    sentence.  The record's token list is shared when nothing is kept."""
    from . import collapse as collapsing
    outcome = collapsing.collapse_tree(record.tree, occurrences)
    collapsed = collapsing.collapse_dependencies(deps, outcome)
    tokens = (collapsing.collapse_tokens(record.tokens, outcome.kept)
              if outcome.kept else record.tokens)
    return Collapsed(treebank.SentenceRecord(record.sid, outcome.tree, tokens),
                     collapsed, outcome, collapsing.detect_cycles(collapsed))


def parse_corpus(model, tokens, stage, memo, golds=None, built=None):
    """Parse each sentence of {sentence id: [token]}; data errors abort
    with the sentence id.  Returns ({sentence id: [Dependency]}, empty where
    parsing failed, and the number of failed sentences).  `memo` maps a
    token tuple to its parse's dependencies under `model`, None where it
    failed, so a sentence repeated in or across passes is parsed once per
    model; edge lists are shared, never mutated.  A parsed edge equal in
    all six fields to one of golds[sentence id], if given, is that gold
    object.  Each new tree goes to built(token tuple, tree), if given, and
    is let go before the next parse.
    """
    from . import parser
    deps = {}
    failures = 0
    for sid, words in tokens.items():
        key = tuple(words)
        if key not in memo:
            with _stage(stage, sid):
                tree = parser.parse(model, words).tree
            edges = None if tree is None else parser.extract_dependencies(tree)
            if edges and golds is not None:
                same = {dep.key(): dep for dep in golds[sid]}
                edges = [same.get(dep.key(), dep) for dep in edges]
            memo[key] = edges
            if edges is not None and built is not None:
                built(key, tree)
            del tree
        failures += memo[key] is None
        deps[sid] = memo[key] or []
    return deps, failures


def combine_corpus(out_a, out_b, occurrences, scheme, tokens, tokens_path,
                   out_b_path):
    """Combine each sentence of out_a, {sentence id: [Dependency]} on
    original tokens, with out_b's dependencies on collapsed tokens under
    `scheme`, as the combine subcommand reads them from files; returns
    {sentence id: [Dependency]} in out_a's order.

    `tokens`, read from `tokens_path`, holds the original tokens of each
    out_a sentence in order.  Every out_a edge's words must match them, and
    recognition.rebind_tokens checks and re-binds the occurrences to them.
    out_b must hold exactly out_a's sentence ids; a sentence that failed to
    parse has an empty edge list.  Every out_b edge's words should be the
    tokens the occurrences collapse the sentence to; a sentence where one
    is not, so that its combination is wrong, is named in a warning on
    stderr with `out_b_path`.
    """
    from . import collapse as collapsing
    from . import evaluation
    with _stage("combine"):
        treebank.check_ids(out_b, out_a, "out_b ids differ from out_a's")
    if len(tokens) != len(out_a):
        raise PipelineError("combine", "%s has %d token lines for %d "
                            "sentences of out_a"
                            % (tokens_path, len(tokens), len(out_a)))
    combined = {}
    for lineno, (sid, line) in enumerate(zip(out_a, tokens), 1):
        with _stage("combine", sid):
            misplaced = _misplaced(out_a[sid], line)
            if misplaced:
                raise ValueError("%s line %d has no %r at token %d"
                                 % (tokens_path, lineno, *misplaced))
            occs = recognition.rebind_tokens(occurrences.get(sid, []), line)
            if out_b[sid]:
                collapsed = collapsing.collapse_tokens(line, occs)
                misplaced = _misplaced(out_b[sid], collapsed)
                if misplaced:
                    sys.stderr.write(
                        "warning [combine] %s sentence %s has %r at token %d, "
                        "but the occurrences collapse it to: %s; its "
                        "combination is wrong\n"
                        % (out_b_path, sid, *misplaced, " ".join(collapsed)))
            combined[sid], = evaluation.combine_models(
                out_a[sid], out_b[sid], occs, (scheme,))
    return combined


def _misplaced(deps, tokens):
    """(word, 1-based index) of the first endpoint of `deps` whose word is
    not the token at its index in `tokens`; None when every one is."""
    for dep in deps:
        for index, word in ((dep.i, dep.word_i), (dep.j, dep.word_j)):
            if index >= len(tokens) or tokens[index] != word:
                return word, index + 1
    return None


def _fmt(value):
    return "%.4f" % value


def _loading(records):
    """`records`, a reading error raised as PipelineError of stage load."""
    with _stage("load"):
        yield from records


def _parse_passes(model_a, model_b, test, gold_test, full_test, occurrences,
                  golds):
    """{artifact name: dependencies} of the five parse passes and of the
    after-parsing collapse, and the parse failures of parse-a and parse-b.
    Parse-a collapses each new tree (equal tokens, equal occurrences)."""
    from . import collapse as collapsing
    memo_a, memo_b = {}, {}
    sid_of = {tuple(words): sid for sid, words in test.items()}
    after = {}      # test tokens -> the after-parsing collapse of their parse

    def collapse_after(key, tree):
        sid = sid_of[key]
        after[key] = collapse_record(treebank.SentenceRecord(
            sid, tree, test[sid]), occurrences[sid], memo_a[key]).deps

    out_a, failures_a = parse_corpus(model_a, test, "parse-a", memo_a,
                                     golds["gold_a"], collapse_after)
    out_b, failures_b = parse_corpus(model_b, gold_test, "parse-b", memo_b,
                                     golds["gold_b"])
    outputs = {
        "out_a": out_a, "out_b": out_b,
        "out_a_before": parse_corpus(model_a, gold_test, "parse-a-before",
                                     memo_a, golds["gold_b"])[0],
        "out_a_after": {sid: after.get(tuple(words), [])
                        for sid, words in test.items()},
        "out_a_full_before": parse_corpus(model_a, full_test, "parse-a-full",
                                          memo_a, golds["gold_b_full"])[0],
        "out_a_full_after": {sid: collapsing.collapse_all_dependencies(
            out_a[sid], occurrences[sid]) for sid in test},
        "out_b_full": parse_corpus(model_b, full_test, "parse-b-full",
                                   memo_b, golds["gold_b_full"])[0]}
    return outputs, failures_a, failures_b


# every file that run writes to its output directory, in the order it moves
# them in; treebank_dev.txt only when the dev split holds a sentence
ARTIFACTS = (
    "treebank_b.txt", "treebank_train.txt", "treebank_dev.txt",
    "treebank_test.txt", "occurrences.tsv", "tokens_test.txt",
    "tokens_test_collapsed.txt", "tokens_test_fully_collapsed.txt",
    "model_a.tsv", "model_b.tsv", "gold_a.deps", "gold_b.deps",
    "gold_b_full.deps", "out_a.deps", "out_b.deps", "out_a_before.deps",
    "out_a_after.deps", "out_a_full_before.deps", "out_a_full_after.deps",
    "out_b_full.deps", "combined_medFromA.deps", "combined_rightmostMed.deps",
    "combined_leftmostMed.deps", "combined_full_medFromA.deps",
    "combined_full_rightmostMed.deps", "combined_full_leftmostMed.deps",
    "counts_training-effect_x.tsv", "counts_training-effect_y.tsv",
    "counts_parsing-effect_x.tsv", "counts_parsing-effect_y.tsv",
    "counts_parsing-effect-full_x.tsv", "counts_parsing-effect-full_y.tsv",
    "counts_combination-medFromA_x.tsv", "counts_combination-medFromA_y.tsv",
    "report.tsv", "summary.txt")


def run_pipeline(config):
    """Run the full experiment into a staging directory in config.output,
    then move its files into the output.  Returns the score rows, the
    stats, the significance rows and the summary text."""
    from . import evaluation
    output, made = _claimed_output(config.output)
    staging = None
    try:
        os.makedirs(output, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=output)
        rows, stats, tests = _run_stages(config, staging)
        # every other artifact is written, and its data let go: numpy, if a
        # test loads it, lands on a heap that holds little but the counts
        drawn = {}      # the swap columns the four tests share
        sig_rows = [(name, evaluation.sig_test(
            counts_x, counts_y, iterations=config.iterations,
            seed=config.seed, drawn=drawn))
            for name, counts_x, counts_y in tests]
        summary = _summary(config, rows, stats, sig_rows)
        treebank.write_text(os.path.join(staging, "report.tsv"),
                            [_report(rows, stats, sig_rows)])
        treebank.write_text(os.path.join(staging, "summary.txt"), [summary])
        _move_in(staging, output)
    except BaseException:
        for directory in filter(None, [staging, *made]):
            _discard(directory)
        raise
    return {"rows": rows, "stats": stats, "significance": sig_rows,
            "summary": summary}


def _claimed_output(path):
    """The real path of the output directory `path`, and the directories
    run makes for it, from it up.  PipelineError unless it can be a
    directory that holds nothing but files of ARTIFACTS."""
    output = existing = os.path.realpath(path)
    made = []
    while not os.path.exists(existing):
        made.append(existing)
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise PipelineError("run", "output %s: %s is not a directory"
                            % (path, existing))
    if not made:
        for name in sorted(os.listdir(output)):
            if (name not in ARTIFACTS
                    or os.path.isdir(os.path.join(output, name))):
                raise PipelineError("run", "output %s holds %s, which run "
                                    "does not write" % (path, name))
    return output, made


def _move_in(staging, output):
    """Move the files of `staging` into `output`, remove the other files of
    ARTIFACTS there, then `staging`.  report.tsv and summary.txt go first
    and come back last: an output that holds them holds one run's files."""
    written = os.listdir(staging)
    stale = [name for name in ARTIFACTS if name not in written]
    for name in [*ARTIFACTS[-2:], *stale]:
        with suppress(FileNotFoundError):
            os.remove(os.path.join(output, name))
    for name in ARTIFACTS:
        if name in written:
            os.replace(os.path.join(staging, name), os.path.join(output, name))
    os.rmdir(staging)


def _discard(directory):
    """Remove the files of ARTIFACTS in `directory`, then the directory if
    that empties it: a file of another name, and its directory, stay."""
    for name in ARTIFACTS:
        with suppress(FileNotFoundError, IsADirectoryError):
            os.remove(os.path.join(directory, name))
    with suppress(OSError):
        os.rmdir(directory)


def _run_stages(config, staging):
    """Run every stage but the significance tests, and write each artifact
    but report.tsv and summary.txt into `staging`.  Returns the score rows
    with their totals alone, the stats and, per significance test, its name
    and the per-sentence counts of X and Y: no edge, tree or model."""
    from . import collapse as collapsing
    from . import evaluation, parser
    with _stage("load"):
        lexicon = treebank.read_lexicon(config.lexicon)
    training_a, training_b = parser.Training(), parser.Training()

    # one pass over the treebank (see the module docstring)
    occurrences, kept = {}, {}                  # of the test sentences
    test, gold_test, full_test = {}, {}, {}     # original, gold B, full
    dependencies = {"gold_a": {}, "gold_b": {}, "gold_b_full": {}}
    mwe_total = sibling_total = cycles = 0
    with ExitStack() as files:
        handles = {}    # artifact name -> the file the pass writes it to

        def stream(name, text):
            if name not in handles:
                handles[name] = files.enter_context(open(
                    os.path.join(staging, name), "w", encoding="utf-8"))
            handles[name].write(text)

        for split, record in split_records(
                _loading(treebank.iter_treebank(config.treebank)),
                config.train, config.dev, config.test):
            sid = record.sid
            occs = recognition.recognize(lexicon, record.tokens,
                                         config.recognizer)
            stream("occurrences.tsv", treebank.render_occurrences(sid, occs))
            gold = parser.extract_dependencies(record.tree)
            collapsed = collapse_record(record, occs, gold)
            mwe_total += len(occs)
            sibling_total += len(collapsed.outcome.kept)
            cycles += collapsed.cycles
            stream("treebank_b.txt",
                   treebank.render_treebank([collapsed.record]))
            if split is not None:
                stream("treebank_%s.txt" % split,
                       treebank.render_treebank([record]))
            if split == "train":
                training_a.add(record.tree)
                training_b.add(collapsed.record.tree)
            elif split == "test":
                occurrences[sid], kept[sid] = occs, collapsed.outcome.kept
                test[sid] = record.tokens
                gold_test[sid] = collapsed.record.tokens
                full_test[sid] = collapsing.collapse_tokens(record.tokens,
                                                            occs)
                dependencies["gold_a"][sid] = gold
                dependencies["gold_b"][sid] = collapsed.deps
                dependencies["gold_b_full"][sid] = \
                    collapsing.collapse_all_dependencies(gold, occs)
        del lexicon, record, collapsed      # the last sentence's trees

    # model A on original tokens, model B on the collapsed treebank
    with _stage("train-a"):
        model_a = training_a.model(config.smoothing)
    with _stage("train-b"):
        model_b = training_b.model(config.smoothing)
    del training_a, training_b
    outputs, failures_a, failures_b = _parse_passes(
        model_a, model_b, test, gold_test, full_test, occurrences,
        dependencies)
    dependencies.update(outputs)        # artifact name -> dependencies

    # model combination against gold A, as `combine` computes it, in one
    # pass per sentence for all the schemes
    out_a = dependencies["out_a"]
    for prefix, deps_b, occs in (("combined_", "out_b", kept),
                                 ("combined_full_", "out_b_full", occurrences)):
        combined = {sid: evaluation.combine_models(
            out_a[sid], dependencies[deps_b][sid], occs[sid],
            recognition.SCHEMES) for sid in out_a}
        for n, scheme in enumerate(recognition.SCHEMES):
            dependencies[prefix + scheme] = {
                sid: schemes[n] for sid, schemes in combined.items()}

    # score each system: (gold, section, system, output artifact)
    systems = [
        ("A", "baseline", "A", "out_a"),
        ("B", "gold-test", "A-before-parsing", "out_a_before"),
        ("B", "gold-test", "A-after-parsing", "out_a_after"),
        ("B", "gold-test", "B", "out_b"),
        ("B", "fully-collapsed", "A-before-parsing", "out_a_full_before"),
        ("B", "fully-collapsed", "A-after-parsing", "out_a_full_after"),
        ("B", "fully-collapsed", "B", "out_b_full")]
    for section, prefix in (("combination", "combined_"),
                            ("combination-full", "combined_full_")):
        systems += [("A", section, "A+B " + scheme, prefix + scheme)
                    for scheme in recognition.SCHEMES]
    with _stage("eval"):
        keys = {"A": evaluation.gold_keys(dependencies["gold_a"]),
                "B": evaluation.gold_keys(dependencies["gold_b"])}
        rows = [(gold_name, section, system,
                 evaluation.score(dependencies[name], keys[gold_name]))
                for gold_name, section, system, name in systems]
    reports = {(section, system): report for _, section, system, report in rows}

    # significance tests of X against Y, each named by its (section, system)
    pairs = [
        ("training-effect", ("gold-test", "B"),
         ("gold-test", "A-before-parsing")),
        ("parsing-effect", ("gold-test", "A-before-parsing"),
         ("gold-test", "A-after-parsing")),
        ("parsing-effect-full", ("fully-collapsed", "A-before-parsing"),
         ("fully-collapsed", "A-after-parsing")),
        ("combination-medFromA", ("combination", "A+B medFromA"),
         ("baseline", "A"))]
    stats = {
        "mwe_count": mwe_total,
        "sibling_count": sibling_total,
        "sibling_pct": 100.0 * sibling_total / mwe_total if mwe_total else 0.0,
        "cycles": cycles,
        "parse_failures_a": failures_a,
        "parse_failures_b": failures_b,
    }

    artifacts = [
        (treebank.write_tokens, "tokens_test.txt", test.values()),
        (treebank.write_tokens, "tokens_test_collapsed.txt",
         gold_test.values()),
        (treebank.write_tokens, "tokens_test_fully_collapsed.txt",
         full_test.values()),
        (parser.save_model, "model_a.tsv", model_a),
        (parser.save_model, "model_b.tsv", model_b)]
    artifacts += [(treebank.write_dependencies, name + ".deps", deps)
                  for name, deps in dependencies.items()]
    tests = [(name, reports[x].per_sentence, reports[y].per_sentence)
             for name, x, y in pairs]
    for report in reports.values():
        report.per_sentence = None      # the rows keep their totals alone
    artifacts += [(treebank.write_counts, "counts_%s_%s.tsv" % (name, side),
                   counts) for name, *sides in tests
                  for side, counts in zip("xy", sides)]
    for write, name, value in artifacts:
        write(os.path.join(staging, name), value)
    return rows, stats, tests


def _report(rows, stats, sig_rows):
    lines = ["# eval\tgold\tsection\tsystem\tP\tR\tF1\tcorrect\t"
             "attempted\tgold_deps\tP_undefined"]
    for gold_name, section, system, rep in rows:
        lines.append("eval\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d"
                     % (gold_name, section, system,
                        _fmt(rep.precision), _fmt(rep.recall), _fmt(rep.f1),
                        rep.correct, rep.attempted, rep.gold,
                        int(rep.undefined_precision)))
    for key in sorted(stats):
        value = stats[key]
        lines.append("stat\t%s\t%s"
                     % (key, _fmt(value) if isinstance(value, float) else value))
    for name, result in sig_rows:
        lines.append("sigtest\t%s\t%s\t%s\t%d\t%d"
                     % (name, _fmt(result.p_value), _fmt(result.observed_diff),
                        result.iterations, int(result.exhaustive)))
    return "\n".join(lines) + "\n"


def _summary(config, rows, stats, sig_rows):
    lines = ["Experiment summary", "==================",
             "recognizer: detector=%s filters=%s resolver=%s"
             % (config.recognizer.detector, ",".join(config.recognizer.filters),
                config.recognizer.resolver)]
    lines.append("recognized MWEs: %d, siblings: %d (%.2f%%), cycles: %d"
                 % (stats["mwe_count"], stats["sibling_count"],
                    stats["sibling_pct"], stats["cycles"]))
    lines.append("parse failures: model A %d, model B %d"
                 % (stats["parse_failures_a"], stats["parse_failures_b"]))
    lines.append("")
    current = None
    for gold_name, section, system, rep in rows:
        heading = "%s (vs gold %s)" % (section, gold_name)
        if heading != current:
            lines.append(heading)
            lines.append("-" * len(heading))
            current = heading
        flag = " (P undefined)" if rep.undefined_precision else ""
        lines.append("  %-22s P=%s R=%s F1=%s%s"
                     % (system, _fmt(rep.precision), _fmt(rep.recall),
                        _fmt(rep.f1), flag))
    lines.append("")
    lines.append("significance (one-tailed randomized shuffling)")
    lines.append("----------------------------------------------")
    for name, result in sig_rows:
        lines.append("  %-24s diff=%s p=%s%s"
                     % (name, _fmt(result.observed_diff), _fmt(result.p_value),
                        " (exhaustive)" if result.exhaustive else ""))
    return "\n".join(lines) + "\n"
