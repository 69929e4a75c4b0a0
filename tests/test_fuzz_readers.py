"""Fuzz every input reader: on arbitrary text each one returns or raises its
own error type, worded ``<file> line N: <reason>`` with N a line of the
file (``[config] <file> line N:``, or ``[config] <key>:`` for a value,
from read_config)."""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccgmwe.parser import load_model
from ccgmwe.pipeline import CONFIG_KEYS, PipelineError, read_config
from ccgmwe.treebank import (LexiconError, TreebankFormatError, read_counts,
                             read_dependencies, read_ids, read_lexicon,
                             read_occurrences, read_tokens, read_treebank)

# well-formed lines of every format, so examples also get past the field
# splitting into the conversions and checks behind it
VALID_LINES = [
    "ID 46", "(N x)", "(S (NP (N/N a) (N b)) (S\\NP c))",
    "1\t2\t(S\\NP)/NP\t2\ta\tb", "mr. spoon\tproper-noun\t3\t4;3",
    "46\t0,1\tmr.+spoon\tproper-noun", "46\t1\t2\t3",
    "meta\tsmoothing\t\t0.1", "meta\trare_threshold\t\t2",
    "rule\tS\tNP S\\NP\t0.5", "rule\tN\t<LEX>\t1.0", "lex\tN\tx\t0.25",
    "backoff\tNN\tN\t1.0", "tokpos\tx\tNN\t3", "root\t\tS\t1.0",
    "smoothing = 0.1", "detector = exhaustive", "filters = continuous",
]
PIECES = ["", "ID ", "ID", "\t", " ", "(", ")", "N", "NP", "S\\NP",
          "(S\\NP)/NP", "N/N", "[dcl]", "0", "1", "2", "-1", "46", "1.5", ",",
          ";", "+", "inf", "nan", "#", "=", "x", "general", "stop-word", "meta",
          "rule", "lex", "tokpos", "rare_threshold", "<LEX>",
          "constrain-length(", "\r"] + sorted(CONFIG_KEYS)

PIECE = st.sampled_from(PIECES)
LINE = st.one_of(st.sampled_from(VALID_LINES),
                 st.lists(PIECE, max_size=8).map("".join),
                 st.lists(PIECE, min_size=1, max_size=6).map("\t".join),
                 st.builds("{} = {}".format, PIECE, PIECE))
TEXT = st.lists(LINE, max_size=8).map("\n".join)


def read_dependency_headers(path):
    """read_dependencies on the file with every line not starting with
    ``ID`` blanked, so its sentence-id checks (empty, repeated) are reached
    without an edge line failing first; the file keeps its line numbers."""
    data = Path(path).read_bytes()
    Path(path).write_bytes(re.sub(rb"(?m)^(?!ID)[^\n]*", b"", data))
    return read_dependencies(path)


READERS = [
    pytest.param(read_treebank, TreebankFormatError, id="treebank"),
    pytest.param(read_dependencies, TreebankFormatError, id="dependencies"),
    pytest.param(read_dependency_headers, TreebankFormatError,
                 id="dependencies-unique"),
    pytest.param(read_tokens, TreebankFormatError, id="tokens"),
    pytest.param(read_ids, TreebankFormatError, id="ids"),
    pytest.param(read_lexicon, LexiconError, id="lexicon"),
    pytest.param(read_occurrences, TreebankFormatError, id="occurrences"),
    pytest.param(read_counts, TreebankFormatError, id="counts"),
    pytest.param(load_model, TreebankFormatError, id="model"),
    pytest.param(lambda path: read_config([path]), PipelineError,
                 id="config"),
]


# derandomized, so every run of the suite tries the same examples
@pytest.mark.parametrize("reader,error", READERS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=TEXT)
def test_reader_names_file_and_line(tmp_path, reader, error, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(str(path))
    except error as exc:
        message = str(exc)
        if error is PipelineError:
            assert message.startswith("[config] ")
            message = message[len("[config] "):]
            if message.split(":", 1)[0] in CONFIG_KEYS:
                return
        located = re.match(re.escape(str(path)) + r" line (\d+): ", message)
        assert located, message
        assert 1 <= int(located.group(1)) <= text.count("\n") + 1, message


@pytest.mark.parametrize("row,reason", [
    ("meta\tsmoothing\tjunk\t0.1",
     "outcome of a meta row must be empty, got 'junk'"),
    ("root\tjunk\tS\t1.0",
     "condition of a root row must be empty, got 'junk'")],
    ids=["meta-outcome", "root-condition"])
def test_model_rejects_a_field_save_model_leaves_empty(tmp_path, row, reason):
    """save_model writes no outcome on a meta row and no condition on a
    root row, so a model file that has one would not survive a save."""
    path = tmp_path / "model.tsv"
    path.write_text("rule\tS\t<LEX>\t1.0\n" + row + "\n", encoding="utf-8")
    with pytest.raises(TreebankFormatError) as err:
        load_model(str(path))
    assert str(err.value) == "%s line 2: %s" % (path, reason)


@pytest.mark.parametrize("table,first,again", [
    ("meta", "meta\tsmoothing\t\t0.1", "meta\tsmoothing\t\t0.7"),
    # the same outcome category, written with redundant parentheses
    ("rule", "rule\tS\tNP S\\NP\t0.5", "rule\tS\tNP (S\\NP)\t0.25"),
    ("root", "root\t\tS\t1.0", "root\t\tS\t0.5")],
    ids=["meta", "rule", "root"])
def test_model_rejects_a_repeated_row(tmp_path, table, first, again):
    """A repeated meta key, root category or (table, condition, outcome)
    would override the earlier row; save_model never writes one."""
    path = tmp_path / "model.tsv"
    path.write_text(first + "\nlex\tN\tdog\t1.0\n" + again + "\n",
                    encoding="utf-8")
    with pytest.raises(TreebankFormatError) as err:
        load_model(str(path))
    assert str(err.value) == "%s line 3: repeated %s row" % (path, table)
