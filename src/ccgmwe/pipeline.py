"""Experiment pipeline: split, recognize, collapse, train, parse, combine,
evaluate and significance-test one recognizer configuration end to end.

The pipeline trains a baseline model on the original treebank and a second
model on the MWE-collapsed treebank, then evaluates along two axes.
Against the collapsed gold standard it compares parsing collapsed input
(the before-parsing route) with collapsing parser output (the after-parsing
route), for both gold-sibling and fully-collapsed test data.  Against the
original gold standard it evaluates the three model-combination schemes.
Every intermediate artifact is written to the output directory in the same
formats the individual subcommands consume, and the whole run is a pure
function of the configuration and input files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import collapse as collapsing
from . import evaluation, parser, recognition, treebank


class PipelineError(RuntimeError):
    """A stage failure; carries the stage name and offending sentence id."""

    def __init__(self, stage, message, sid=None):
        detail = "[%s] %s" % (stage, message)
        if sid is not None:
            detail += " (sentence %s)" % sid
        super().__init__(detail)
        self.stage = stage
        self.sid = sid


@dataclass
class ExperimentConfig:
    treebank: str = ""
    lexicon: str = ""
    output: str = "out"
    train: str = ""
    dev: str = ""
    test: str = ""
    recognizer: recognition.RecognizerConfig = field(
        default_factory=recognition.RecognizerConfig)
    schemes: tuple = evaluation.SCHEMES
    smoothing: float = 0.1
    seed: int = 0
    iterations: int = 10000


def read_config(paths):
    """Assemble a configuration from flat key=value files; later files
    override earlier ones, so recognizer presets can be layered on top of
    a base configuration."""
    values = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise PipelineError("config", "%s line %d: expected key=value"
                                        % (path, lineno))
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return config_from_values(values)


def config_from_values(values):
    known = {"treebank", "lexicon", "output", "train", "dev", "test",
             "detector", "filters", "resolver", "schemes", "smoothing",
             "seed", "iterations"}
    unknown = sorted(set(values) - known)
    if unknown:
        raise PipelineError("config", "unknown keys: %s" % ", ".join(unknown))
    recognizer = recognition.RecognizerConfig(
        detector=values.get("detector", "exhaustive"),
        filters=tuple(part.strip() for part in
                      values.get("filters", "continuous").split(",") if part.strip()),
        resolver=values.get("resolver", "longest"),
    )
    schemes = tuple(part.strip() for part in
                    values.get("schemes", ",".join(evaluation.SCHEMES)).split(",")
                    if part.strip())
    for scheme in schemes:
        if scheme not in evaluation.SCHEMES:
            raise PipelineError("config", "unknown scheme %r" % scheme)
    return ExperimentConfig(
        treebank=values.get("treebank", ""),
        lexicon=values.get("lexicon", ""),
        output=values.get("output", "out"),
        train=values.get("train", ""),
        dev=values.get("dev", ""),
        test=values.get("test", ""),
        recognizer=recognizer,
        schemes=schemes,
        smoothing=float(values.get("smoothing", "0.1")),
        seed=int(values.get("seed", "0")),
        iterations=int(values.get("iterations", "10000")),
    )


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


def split_records(records, config):
    """Partition records by the id ranges of the configuration."""
    specs = {"train": config.train, "dev": config.dev, "test": config.test}
    id_sets = {}
    for name, spec in specs.items():
        try:
            id_sets[name] = parse_id_spec(spec) if spec else set()
        except ValueError as exc:
            raise PipelineError("split", "%s split: %s" % (name, exc)) from exc
    for first in ("train", "dev"):
        for second in ("dev", "test"):
            if first != second and id_sets[first] & id_sets[second]:
                raise PipelineError("split", "%s and %s splits overlap"
                                    % (first, second))
    if id_sets["train"] & id_sets["test"]:
        raise PipelineError("split", "train and test splits overlap")
    splits = {name: [] for name in specs}
    for record in records:
        try:
            number = int(record.sid)
        except ValueError:
            raise PipelineError("split", "sentence id %r is not numeric"
                                % record.sid) from None
        for name in specs:
            if number in id_sets[name]:
                splits[name].append(record)
    if not splits["train"]:
        raise PipelineError("split", "empty training split")
    if not splits["test"]:
        raise PipelineError("split", "empty test split")
    return splits


def _parse_corpus(model, records, stage, memo):
    """Parse each record's tokens; failures yield empty outputs, data
    errors abort with the sentence id.

    `memo` maps a token tuple to its (tree, dependencies) under `model`,
    so a sentence repeated across passes is parsed once per model; the
    outputs are shared, never mutated downstream.  A memo hit that failed
    to parse still counts as a failure of this pass.
    """
    trees = {}
    deps = {}
    failures = 0
    for record in records:
        key = tuple(record.tokens)
        outcome = memo.get(key)
        if outcome is None:
            try:
                result = parser.parse(model, record.tokens)
            except ValueError as exc:
                raise PipelineError(stage, str(exc), record.sid) from exc
            if result.tree is None:
                outcome = (None, [])
            else:
                outcome = (result.tree,
                           parser.extract_dependencies(result.tree))
            memo[key] = outcome
        tree, deps[record.sid] = outcome
        if tree is None:
            failures += 1
        else:
            trees[record.sid] = tree
    return trees, deps, failures


def _fmt(value):
    return "%.4f" % value


@dataclass
class EvalRow:
    gold: str
    section: str
    system: str
    report: evaluation.EvalReport


def run_pipeline(config):
    """Run the full experiment; returns the report structure after writing
    every artifact to config.output."""
    os.makedirs(config.output, exist_ok=True)

    def out(name):
        return os.path.join(config.output, name)

    # --- split -------------------------------------------------------
    try:
        records = treebank.read_treebank(config.treebank)
        lexicon = treebank.read_lexicon(config.lexicon)
    except (OSError, ValueError) as exc:
        raise PipelineError("load", str(exc)) from exc
    splits = split_records(records, config)
    for name in ("train", "dev", "test"):
        if splits[name]:
            treebank.write_treebank(out("treebank_%s.txt" % name), splits[name])
    test_records = splits["test"]
    treebank.write_tokens(out("tokens_test.txt"),
                          [r.tokens for r in test_records])

    # --- gold standard A ----------------------------------------------
    gold_a = {}
    for record in test_records:
        gold_a[record.sid] = parser.extract_dependencies(record.tree)
    treebank.write_dependencies(out("gold_a.deps"),
                                [(r.sid, gold_a[r.sid]) for r in test_records])

    # --- model A -------------------------------------------------------
    try:
        model_a = parser.train(splits["train"], config.smoothing)
    except ValueError as exc:
        raise PipelineError("train-a", str(exc)) from exc
    parser.save_model(out("model_a.tsv"), model_a)
    memo_a = {}
    out_a_trees, out_a, failures_a = _parse_corpus(model_a, test_records,
                                                   "parse-a", memo_a)
    treebank.write_dependencies(out("out_a.deps"),
                                [(r.sid, out_a[r.sid]) for r in test_records])

    # --- recognize ------------------------------------------------------
    occurrences = {}
    for record in records:
        occurrences[record.sid] = recognition.recognize(
            lexicon, record.tokens, config.recognizer)
    treebank.write_occurrences(out("occurrences.tsv"),
                               [(r.sid, occurrences[r.sid]) for r in records])

    # --- collapse the treebank (gold side) ------------------------------
    collapsed_records = []
    outcomes = {}
    mwe_total = 0
    sibling_total = 0
    cycles = 0
    for record in records:
        try:
            outcome = collapsing.collapse_tree(record.tree, occurrences[record.sid])
            gold_deps = parser.extract_dependencies(record.tree)
            collapsed_deps = collapsing.collapse_dependencies(gold_deps, outcome)
        except ValueError as exc:
            raise PipelineError("collapse", str(exc), record.sid) from exc
        outcomes[record.sid] = (outcome, collapsed_deps)
        mwe_total += len(outcome.kept) + len(outcome.discarded)
        sibling_total += len(outcome.kept)
        cycles += collapsing.detect_cycles(collapsed_deps)
        collapsed_records.append(treebank.SentenceRecord(
            record.sid, outcome.tree,
            [token for _, token in treebank.leaves(outcome.tree)]))
    treebank.write_treebank(out("treebank_b.txt"), collapsed_records)
    sibling_pct = 100.0 * sibling_total / mwe_total if mwe_total else 0.0
    collapsed_by_id = {r.sid: r for r in collapsed_records}

    # --- gold standard B and collapsed test data -------------------------
    gold_b = {r.sid: outcomes[r.sid][1] for r in test_records}
    treebank.write_dependencies(out("gold_b.deps"),
                                [(r.sid, gold_b[r.sid]) for r in test_records])
    gold_test_records = [collapsed_by_id[r.sid] for r in test_records]
    treebank.write_tokens(out("tokens_test_collapsed.txt"),
                          [r.tokens for r in gold_test_records])

    # fully collapsed test data: treat every recognized MWE as a sibling
    full_test_records = []
    gold_b_full = {}
    for record in test_records:
        tokens, _ = collapsing.collapse_tokens(record.tokens,
                                               occurrences[record.sid])
        full_test_records.append(treebank.SentenceRecord(record.sid, None, tokens))
        gold_b_full[record.sid] = collapsing.collapse_all_dependencies(
            gold_a[record.sid], occurrences[record.sid])
    treebank.write_tokens(out("tokens_test_fully_collapsed.txt"),
                          [r.tokens for r in full_test_records])
    treebank.write_dependencies(out("gold_b_full.deps"),
                                [(r.sid, gold_b_full[r.sid]) for r in test_records])

    # --- model B ----------------------------------------------------------
    train_b = [collapsed_by_id[r.sid] for r in splits["train"]]
    try:
        model_b = parser.train(train_b, config.smoothing)
    except ValueError as exc:
        raise PipelineError("train-b", str(exc)) from exc
    parser.save_model(out("model_b.tsv"), model_b)
    memo_b = {}
    _, out_b, failures_b = _parse_corpus(model_b, gold_test_records,
                                         "parse-b", memo_b)
    treebank.write_dependencies(out("out_b.deps"),
                                [(r.sid, out_b[r.sid]) for r in test_records])

    # --- before/after parsing routes against gold B -----------------------
    _, out_a_before, _ = _parse_corpus(model_a, gold_test_records,
                                       "parse-a-before", memo_a)
    out_a_after = {}
    for record in test_records:
        tree = out_a_trees.get(record.sid)
        if tree is None:
            out_a_after[record.sid] = []
            continue
        try:
            outcome = collapsing.collapse_tree(tree, occurrences[record.sid])
            out_a_after[record.sid] = collapsing.collapse_dependencies(
                out_a[record.sid], outcome)
        except ValueError as exc:
            raise PipelineError("collapse-out-a", str(exc), record.sid) from exc
    treebank.write_dependencies(out("out_a_before.deps"),
                                [(r.sid, out_a_before[r.sid]) for r in test_records])
    treebank.write_dependencies(out("out_a_after.deps"),
                                [(r.sid, out_a_after[r.sid]) for r in test_records])

    # fully collapsed variants
    _, out_a_full_before, _ = _parse_corpus(model_a, full_test_records,
                                            "parse-a-full", memo_a)
    _, out_b_full, _ = _parse_corpus(model_b, full_test_records,
                                     "parse-b-full", memo_b)
    out_a_full_after = {
        r.sid: collapsing.collapse_all_dependencies(out_a[r.sid],
                                                    occurrences[r.sid])
        for r in test_records}
    treebank.write_dependencies(out("out_a_full_before.deps"),
                                [(r.sid, out_a_full_before[r.sid]) for r in test_records])
    treebank.write_dependencies(out("out_a_full_after.deps"),
                                [(r.sid, out_a_full_after[r.sid]) for r in test_records])
    treebank.write_dependencies(out("out_b_full.deps"),
                                [(r.sid, out_b_full[r.sid]) for r in test_records])

    # --- model combination against gold A ---------------------------------
    combined = {}
    combined_full = {}
    for scheme in config.schemes:
        combined[scheme] = {}
        combined_full[scheme] = {}
        for record in test_records:
            kept = outcomes[record.sid][0].kept
            try:
                combined[scheme][record.sid] = evaluation.combine_models(
                    out_a[record.sid], out_b[record.sid], kept, scheme)
                combined_full[scheme][record.sid] = evaluation.combine_models(
                    out_a[record.sid], out_b_full[record.sid],
                    occurrences[record.sid], scheme)
            except ValueError as exc:
                raise PipelineError("combine", str(exc), record.sid) from exc
        treebank.write_dependencies(
            out("combined_%s.deps" % scheme),
            [(r.sid, combined[scheme][r.sid]) for r in test_records])
        treebank.write_dependencies(
            out("combined_full_%s.deps" % scheme),
            [(r.sid, combined_full[scheme][r.sid]) for r in test_records])

    # --- evaluations -------------------------------------------------------
    rows = []

    def evaluate(gold_name, section, system_name, system, gold):
        try:
            report = evaluation.score(system, gold)
        except ValueError as exc:
            raise PipelineError("eval", str(exc)) from exc
        rows.append(EvalRow(gold_name, section, system_name, report))
        return report

    evaluate("A", "baseline", "A", out_a, gold_a)
    rep_a_before = evaluate("B", "gold-test", "A-before-parsing",
                            out_a_before, gold_b)
    rep_a_after = evaluate("B", "gold-test", "A-after-parsing",
                           out_a_after, gold_b)
    rep_b = evaluate("B", "gold-test", "B", out_b, gold_b)
    rep_a_full_before = evaluate("B", "fully-collapsed", "A-before-parsing",
                                 out_a_full_before, gold_b)
    rep_a_full_after = evaluate("B", "fully-collapsed", "A-after-parsing",
                                out_a_full_after, gold_b)
    evaluate("B", "fully-collapsed", "B", out_b_full, gold_b)
    rep_combined = {}
    for scheme in config.schemes:
        rep_combined[scheme] = evaluate("A", "combination", "A+B %s" % scheme,
                                        combined[scheme], gold_a)
    for scheme in config.schemes:
        evaluate("A", "combination-full", "A+B %s" % scheme,
                 combined_full[scheme], gold_a)
    rep_a = rows[0].report

    # --- significance tests --------------------------------------------
    sig_rows = []

    def significance(name, rep_x, rep_y):
        result = evaluation.sig_test(rep_x.per_sentence, rep_y.per_sentence,
                                     iterations=config.iterations,
                                     seed=config.seed)
        sig_rows.append((name, result))
        for side, rep in (("x", rep_x), ("y", rep_y)):
            path = out("counts_%s_%s.tsv" % (name, side))
            with open(path, "w", encoding="utf-8") as handle:
                for sid in sorted(rep.per_sentence):
                    handle.write("%s\t%d\t%d\t%d\n"
                                 % ((sid,) + rep.per_sentence[sid]))
        return result

    significance("training-effect", rep_b, rep_a_before)
    significance("parsing-effect", rep_a_before, rep_a_after)
    significance("parsing-effect-full", rep_a_full_before, rep_a_full_after)
    if "medFromA" in config.schemes:
        significance("combination-medFromA", rep_combined["medFromA"], rep_a)

    stats = {
        "mwe_count": mwe_total,
        "sibling_count": sibling_total,
        "sibling_pct": sibling_pct,
        "cycles": cycles,
        "parse_failures_a": failures_a,
        "parse_failures_b": failures_b,
    }
    _write_report(out("report.tsv"), rows, stats, sig_rows)
    _write_summary(out("summary.txt"), config, rows, stats, sig_rows)
    return {"rows": rows, "stats": stats, "significance": sig_rows}


def _write_report(path, rows, stats, sig_rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# eval\tgold\tsection\tsystem\tP\tR\tF1\tcorrect\t"
                     "attempted\tgold_deps\tP_undefined\n")
        for row in rows:
            rep = row.report
            handle.write("eval\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n"
                         % (row.gold, row.section, row.system,
                            _fmt(rep.precision), _fmt(rep.recall), _fmt(rep.f1),
                            rep.correct, rep.attempted, rep.gold,
                            int(rep.undefined_precision)))
        for key in sorted(stats):
            value = stats[key]
            handle.write("stat\t%s\t%s\n"
                         % (key, _fmt(value) if isinstance(value, float) else value))
        for name, result in sig_rows:
            handle.write("sigtest\t%s\t%s\t%s\t%d\t%d\n"
                         % (name, _fmt(result.p_value), _fmt(result.observed_diff),
                            result.iterations, int(result.exhaustive)))


def _write_summary(path, config, rows, stats, sig_rows):
    lines = []
    lines.append("Experiment summary")
    lines.append("==================")
    lines.append("recognizer: detector=%s filters=%s resolver=%s"
                 % (config.recognizer.detector,
                    ",".join(config.recognizer.filters),
                    config.recognizer.resolver))
    lines.append("recognized MWEs: %d, siblings: %d (%.2f%%), cycles: %d"
                 % (stats["mwe_count"], stats["sibling_count"],
                    stats["sibling_pct"], stats["cycles"]))
    lines.append("parse failures: model A %d, model B %d"
                 % (stats["parse_failures_a"], stats["parse_failures_b"]))
    lines.append("")
    current = None
    for row in rows:
        section = "%s (vs gold %s)" % (row.section, row.gold)
        if section != current:
            lines.append(section)
            lines.append("-" * len(section))
            current = section
        rep = row.report
        flag = " (P undefined)" if rep.undefined_precision else ""
        lines.append("  %-22s P=%s R=%s F1=%s%s"
                     % (row.system, _fmt(rep.precision), _fmt(rep.recall),
                        _fmt(rep.f1), flag))
    lines.append("")
    lines.append("significance (one-tailed randomized shuffling)")
    lines.append("----------------------------------------------")
    for name, result in sig_rows:
        lines.append("  %-24s diff=%s p=%s%s"
                     % (name, _fmt(result.observed_diff), _fmt(result.p_value),
                        " (exhaustive)" if result.exhaustive else ""))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
