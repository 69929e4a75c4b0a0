"""Seeded generator of a scaled synthetic treebank for the benchmark.

It recombines the templates of tools/build_corpus.py, which it imports
unchanged: noun phrases nested with of-phrases and apposition, stacked
verb-phrase modifiers, and every MWE pattern of the shipped corpus,
including the non-sibling ones (according to, and a noun compound inside a
longer noun stack).

The length of sentence i comes from a fixed schedule that does not depend
on the seed; the seed only chooses the words and structures that fill each
length.  CKY cost grows with the cube of sentence length, so a fixed length
profile keeps the work of one run nearly the same across seeds.
"""

from __future__ import annotations

import importlib.util
import os
import random
import statistics

ROOT = os.getcwd()
SCHEDULE_SEED = 20150517

_spec = importlib.util.spec_from_file_location(
    "build_corpus", os.path.join(ROOT, "tools", "build_corpus.py"))
bc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bc)

from ccgmwe import collapse, recognition  # noqa: E402
from ccgmwe.treebank import SentenceRecord, leaves  # noqa: E402

# proper-noun MWEs; the bureau also holds the nested "information bureau"
NAMED = [("Mr.", "Vinken"), ("Mr.", "Spoon"), ("Elsevier", "N.V."),
         ("Publishers", "Information", "Bureau"), ("New", "York")]
# noun stacks after a determiner; "stock market decline" puts the stock
# market MWE inside a longer stack, where it is not a constituent
STACKS = [("group",), ("shares",), ("price",), ("index",), ("plan",),
          ("report",), ("bureau",), ("chairman",), ("spokesman",),
          ("executive",), ("profit",), ("decline",), ("year",), ("market",),
          ("stock", "market"), ("ad", "pages"), ("publishing", "group"),
          ("stock", "market", "decline"), ("Dutch", "publishing", "group")]
BARE = [("chairman",), ("spokesman",), ("ad", "pages")]
ADJECTIVES = ("big", "new", "first", "Dutch")
INTRANSITIVE = ("fell", "rose", "gained")
TRANSITIVE = ("is", "buys", "sells", "posted", "reported")
BASE_TRANSITIVE = ("buy", "sell")
ADVERBS = ("sharply", "slightly", "yesterday")
VPREPS = ("in", "during")


def length_schedule(count):
    """Sentence lengths, fixed for a given count: about 45 % of 6-14
    tokens, 35 % of 15-24, 15 % of 25-39 and 5 % of 40-60."""
    rng = random.Random(SCHEDULE_SEED)
    bands = ((0.45, 6, 14), (0.80, 15, 24), (0.95, 25, 39), (1.0, 40, 60))
    lengths = []
    for _ in range(count):
        draw = rng.random()
        for edge, lo, hi in bands:
            if draw < edge:
                lengths.append(rng.randint(lo, hi))
                break
    return lengths


class NP:
    """A noun phrase before it becomes a tree: a head plus of-phrases and
    an optional apposition, so it can grow until a sentence fits."""

    def __init__(self, det, words, named=None):
        self.det, self.words, self.named = det, list(words), named
        self.ofs = []
        self.appos = None

    def __len__(self):
        size = (len(self.named) if self.named else
                len(self.words) + (1 if self.det else 0))
        size += sum(1 + len(np) for np in self.ofs)
        return size + (1 + len(self.appos) if self.appos else 0)

    def phrases(self):
        yield self
        for np in self.ofs:
            yield from np.phrases()
        if self.appos:
            yield from self.appos.phrases()

    def tree(self, capital=False):
        if self.named:
            base = bc.np_bare(*self.named)
        elif self.det:
            det = self.det.capitalize() if capital else self.det
            base = bc.np_det(det, *self.words)
        else:
            base = bc.np_bare(*self.words)
        for np in self.ofs:
            base = bc.np_of(base, np.tree())
        if self.appos:
            base = bc.np_appos(base, self.appos.tree())
        return base


def _base_np(rng):
    draw = rng.random()
    if draw < 0.2:
        return NP(None, (), named=rng.choice(NAMED))
    if draw < 0.3:
        return NP(None, rng.choice(BARE))
    return NP(rng.choice(("the", "the", "a")), rng.choice(STACKS))


class Sentence:
    def __init__(self, rng):
        self.rng = rng
        self.subject = _base_np(rng)
        self.of_course = rng.random() < 0.08
        frame = rng.random()
        if frame < 0.3:
            self.head = ("iv", rng.choice(INTRANSITIVE))
        elif frame < 0.75:
            self.head = ("tv", rng.choice(TRANSITIVE), _base_np(rng))
        elif frame < 0.85:
            self.head = ("aux", rng.choice(BASE_TRANSITIVE), _base_np(rng))
        elif frame < 0.92:
            self.head = ("auxfc", "buy", _base_np(rng))
        else:
            self.head = ("shore", _base_np(rng))
        self.mods = []

    def __len__(self):
        size = 1 + len(self.subject) + (2 if self.of_course else 0)
        size += {"iv": 1, "tv": 1, "aux": 2, "auxfc": 2, "shore": 2}[self.head[0]]
        if self.head[0] != "iv":
            size += len(self.head[-1])
        for mod in self.mods:
            size += {"adv": 1, "atleast": 2, "lastyear": 2}.get(mod[0], 0)
            if mod[0] == "prep":
                size += 1 + len(mod[2])
            elif mod[0] == "according":
                size += 2 + len(mod[1])
        return size

    def phrases(self):
        yield from self.subject.phrases()
        if self.head[0] != "iv":
            yield from self.head[-1].phrases()
        for mod in self.mods:
            if isinstance(mod[-1], NP):
                yield from mod[-1].phrases()

    def grow(self, room):
        """Apply one random growth step that adds at most `room` tokens."""
        rng = self.rng
        # step -> tokens it adds besides a new noun phrase
        steps = {"adv": 1, "adjective": 1, "atleast": 2, "lastyear": 2,
                 "prep": 1, "according": 2, "of": 1, "appos": 1}
        with_np = ("prep", "according", "of", "appos")
        kind = rng.choice([k for k, extra in steps.items()
                           if extra + (k in with_np) <= room])
        if kind == "adv":
            self.mods.append(("adv", rng.choice(ADVERBS)))
        elif kind in ("atleast", "lastyear"):
            self.mods.append((kind,))
        elif kind == "adjective":
            stacks = [np for np in self.phrases() if np.det]
            if stacks:
                rng.choice(stacks).words.insert(0, rng.choice(ADJECTIVES))
            else:
                self.mods.append(("adv", rng.choice(ADVERBS)))
        else:
            np = _base_np(rng)
            if steps[kind] + len(np) > room:
                np = NP(None, rng.choice(BARE[:2]))
            if kind == "prep":
                self.mods.append(("prep", rng.choice(VPREPS), np))
            elif kind == "according":
                self.mods.append(("according", np))
            else:
                hosts = [h for h in self.phrases()
                         if kind == "of" or h.appos is None]
                host = rng.choice(hosts)
                if kind == "of":
                    host.ofs.append(np)
                else:
                    host.appos = np

    def tree(self):
        head = self.head
        if head[0] == "iv":
            vp = bc.lf(bc.IV, head[1])
        elif head[0] == "tv":
            vp = bc.vp_t(head[1], head[2].tree())
        elif head[0] == "aux":
            vp = bc.vp_aux("will", bc.vp_t(head[1], head[2].tree()))
        elif head[0] == "auxfc":
            vp = bc.vp_aux_fc("will", head[1], head[2].tree())
        else:
            vp = bc.vp_shore(head[1].tree())
        for mod in self.mods:
            if mod[0] == "adv":
                vp = bc.vp_adv(vp, mod[1])
            elif mod[0] == "atleast":
                vp = bc.vp_at_least(vp)
            elif mod[0] == "lastyear":
                vp = bc.vp_last_year(vp)
            elif mod[0] == "prep":
                vp = bc.vp_prep(vp, mod[1], mod[2].tree())
            else:
                vp = bc.vp_according(vp, mod[1].tree())
        clause = bc.sent(self.subject.tree(capital=not self.of_course), vp)
        if self.of_course:
            clause = bc.of_course(clause)
        return bc.full_stop(clause)


def _sentence(rng, length):
    sentence = Sentence(rng)
    while len(sentence) > length:
        sentence = Sentence(rng)
    while len(sentence) < length:
        sentence.grow(length - len(sentence))
    return sentence.tree()


def generate(seed, count):
    """SentenceRecords with ids 1..count, checked by build_corpus.verify."""
    rng = random.Random(seed)
    records = []
    for index, length in enumerate(length_schedule(count), 1):
        tree = _sentence(rng, length)
        records.append(SentenceRecord(str(index), tree,
                                      [token for _, token in leaves(tree)]))
    bc.verify(records)
    return records


def describe(records, lexicon):
    """Sentence count, lengths, and how many sentences hold an MWE and how
    many of those MWEs are non-siblings, under recognizer preset rec1."""
    lengths = [len(r.tokens) for r in records]
    with_mwe = kept = discarded = 0
    for record in records:
        occurrences = recognition.recognize(lexicon, record.tokens,
                                            recognition.PRESETS["rec1"])
        outcome = collapse.collapse_tree(record.tree, occurrences)
        with_mwe += bool(occurrences)
        kept += len(outcome.kept)
        discarded += len(outcome.discarded)
    return {
        "sentences": len(records),
        "mean_length": round(statistics.fmean(lengths), 2),
        "max_length": max(lengths),
        "mwe_sentence_share": round(with_mwe / len(records), 4),
        "non_sibling_mwe_share": round(discarded / max(1, kept + discarded), 4),
    }

