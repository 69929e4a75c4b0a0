"""Toolkit for measuring the effect of multiword-expression collapsing on
CCG parsing: recognition, treebank collapsing, a small generative chart
parser, dependency evaluation and significance testing."""

from .categories import (Category, CategoryParseError, apply, arity, compose,
                         parse_category, render)
from .collapse import (CollapseOutcome, OverlapError, collapse_all_dependencies,
                       collapse_dependencies, collapse_tokens, collapse_tree,
                       detect_cycles)
from .evaluation import (EvalReport, SigTestResult, classify_edge,
                         combine_models, f1, score, sig_test)
from .parser import (ParseResult, ParserModel, extract_dependencies, parse,
                     pos_tag, train)
from .recognition import (MweOccurrence, RecognizerConfig, PRESETS, detect,
                          apply_filters, recognize, resolve)
from .treebank import (Dependency, DerivationTree, MweLexicon, SentenceRecord,
                       leaves, read_dependencies, read_lexicon, read_tokens,
                       read_treebank, write_dependencies, write_tokens,
                       write_treebank)

__version__ = "0.1.0"
