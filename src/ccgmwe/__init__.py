"""Toolkit for measuring the effect of multiword-expression collapsing on
CCG parsing: recognition, treebank collapsing, a small generative chart
parser, dependency evaluation and significance testing."""
