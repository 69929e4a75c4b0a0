import os
import pickle
import random
import subprocess
import sys

import pytest

from ccgmwe.categories import (BACKWARD, FORWARD, Category, CategoryParseError,
                               apply, arity, compose, derivation_rule,
                               is_modifier, parse_category, render)

C = parse_category


class TestParsing:
    def test_transitive_verb(self):
        cat = C("(S\\NP)/NP")
        assert cat.is_functor()
        assert cat.direction == FORWARD
        assert render(cat.argument) == "NP"
        assert render(cat.result) == "S\\NP"
        assert cat.result.direction == BACKWARD

    def test_atomic(self):
        cat = C("NP")
        assert cat.is_atom()
        assert cat.atom == "NP"
        assert cat.feature is None

    def test_nested_argument(self):
        cat = C("((S\\NP)\\(S\\NP))/PP")
        assert render(cat.argument) == "PP"
        assert render(cat.result) == "(S\\NP)\\(S\\NP)"

    def test_left_associative_spine(self):
        assert C("S\\NP/NP") == C("(S\\NP)/NP")

    def test_features_preserved_and_exact(self):
        cat = C("S[dcl]\\NP")
        assert render(cat) == "S[dcl]\\NP"
        assert C("S[dcl]") != C("S")

    @pytest.mark.parametrize("bad", ["", "  ", "(S\\NP", "S\\NP)", "S//NP",
                                     "()", "S\\", "(S\\NP))/NP", "S[", "S[]"])
    def test_malformed(self, bad):
        with pytest.raises(CategoryParseError) as err:
            C(bad)
        assert "offset" in str(err.value)

    def test_error_offset_points_at_problem(self):
        with pytest.raises(CategoryParseError) as err:
            C("S\\NP)")
        assert err.value.offset == 4


class TestCombination:
    def test_forward_application(self):
        assert apply(C("(S\\NP)/NP"), C("NP"), FORWARD) == C("S\\NP")

    def test_backward_application(self):
        assert apply(C("S\\NP"), C("NP"), BACKWARD) == C("S")

    def test_atom_is_not_a_functor(self):
        assert apply(C("NP"), C("NP"), FORWARD) is None

    def test_argument_mismatch(self):
        assert apply(C("(S\\NP)/NP"), C("PP"), FORWARD) is None
        assert apply(C("(S\\NP)/NP"), C("NP"), BACKWARD) is None

    def test_forward_composition(self):
        assert compose(C("S/(S\\NP)"), C("(S\\NP)/NP"), FORWARD) == C("S/NP")

    def test_backward_composition(self):
        # Y\Z composed under X\Y: primary supplies the result
        assert compose(C("S\\PP"), C("PP\\NP"), BACKWARD) == C("S\\NP")
        assert compose(C("(S\\NP)\\(S\\NP)"), C("S\\NP"), BACKWARD) is None
        assert compose(C("S\\NP"), C("NP\\S"), BACKWARD) == C("S\\S")

    def test_compose_shape_mismatch(self):
        assert compose(C("NP"), C("NP"), FORWARD) is None
        assert compose(C("(S\\NP)\\(S\\NP)"), C("PP/NP"), FORWARD) is None

    def test_combine_lists_rules_in_order(self):
        assert derivation_rule(C("(S\\NP)/NP"), C("NP"), C("S\\NP")) == "fa"


class TestSlots:
    """arg_k numbers the argument slots along the spine: a functor's
    outermost argument fills slot arity(cat), the innermost slot 1."""

    def test_innermost_is_slot_one(self):
        cat = C("(S\\NP)/NP")
        assert arity(cat) == 2
        assert arity(cat.result) == 1      # the subject NP

    def test_atom_has_no_slots(self):
        assert arity(C("NP")) == 0

    def test_outermost_peel(self):
        cat = C("((S\\NP)\\(S\\NP))/PP")
        assert arity(cat) == 3
        assert render(cat.argument) == "PP"


def random_category(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice(["S", "NP", "N", "PP"])
        feature = rng.choice([None, None, None, "dcl", "b", "ng"])
        return Category(atom=name, feature=feature)
    return Category(result=random_category(rng, depth - 1),
                    direction=rng.choice([FORWARD, BACKWARD]),
                    argument=random_category(rng, depth - 1))


class TestProperties:
    def test_render_parse_round_trip(self):
        rng = random.Random(42)
        for _ in range(2000):
            cat = random_category(rng, rng.randint(0, 6))
            assert parse_category(render(cat)) == cat

    def test_canonicalization(self):
        # render(parse(text)) is the canonical fully-parenthesized form
        assert render(C("S\\NP/NP")) == "(S\\NP)/NP"
        assert render(C("(S\\NP)/NP")) == "(S\\NP)/NP"
        assert render(C("((S\\NP))")) == "S\\NP"

    def test_apply_succeeds_iff_shape_matches(self):
        rng = random.Random(7)
        for _ in range(2000):
            fn = random_category(rng, rng.randint(0, 4))
            arg = random_category(rng, rng.randint(0, 3))
            for direction in (FORWARD, BACKWARD):
                result = apply(fn, arg, direction)
                expected = (fn.is_functor() and fn.direction == direction
                            and fn.argument == arg)
                assert (result is not None) == expected
                if result is not None:
                    assert arity(result) == arity(fn) - 1

    def test_compose_apply_chain_equivalence(self):
        # if X/Y . Y/Z = X/Z, consuming Z then Y applies back to X
        rng = random.Random(11)
        for _ in range(1000):
            x = random_category(rng, rng.randint(0, 3))
            y = random_category(rng, rng.randint(0, 3))
            z = random_category(rng, rng.randint(0, 3))
            primary = Category(result=x, direction=FORWARD, argument=y)
            secondary = Category(result=y, direction=FORWARD, argument=z)
            composed = compose(primary, secondary, FORWARD)
            assert composed == Category(result=x, direction=FORWARD,
                                        argument=z)
            assert apply(secondary, z, FORWARD) == y
            assert apply(primary, y, FORWARD) == x
            assert apply(composed, z, FORWARD) == x

    def test_modifier_detection(self):
        assert is_modifier(C("N/N"))
        assert is_modifier(C("(S\\NP)\\(S\\NP)"))
        assert not is_modifier(C("NP/N"))
        assert not is_modifier(C("NP"))


class TestValueContract:
    def test_parsed_equal_categories_are_one_object(self):
        whole = parse_category("(S\\NP)/NP")
        assert whole.result is parse_category("S\\NP")
        assert whole.argument is parse_category("NP")
        modifier = parse_category("(S\\NP)\\(S\\NP)")
        assert modifier.result is modifier.argument is whole.result

    def test_separately_built_equal_categories(self):
        rng = random.Random(5)
        for _ in range(500):
            cat = random_category(rng, rng.randint(0, 5))
            twin = parse_category(render(cat))
            rebuilt = _rebuild(cat)
            assert rebuilt is cat and twin is cat
            assert hash(rebuilt) == hash(cat) == hash(twin)

    def test_constructed_category_is_the_parsed_one(self):
        assert Category(atom="NP") is parse_category("NP")
        assert Category(atom="S", feature="dcl") is parse_category("S[dcl]")
        assert (Category(result=C("S"), direction=BACKWARD, argument=C("NP"))
                is parse_category("S\\NP"))

    @pytest.mark.parametrize("field", ["atom", "feature", "result",
                                       "direction", "argument"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        cat = C("(S\\NP)/NP")
        before = getattr(cat, field)
        with pytest.raises(AttributeError):
            setattr(cat, field, None)
        with pytest.raises(AttributeError):
            delattr(cat, field)
        with pytest.raises(AttributeError):
            cat.extra = 1
        assert getattr(cat, field) is before
        assert render(cat) == "(S\\NP)/NP"

    def test_distinct_categories_differ(self):
        assert C("S\\NP") != C("S/NP")
        assert C("S[dcl]") != C("S")
        assert C("(S\\NP)/NP") != C("S\\(NP/NP)")

    def test_non_category_is_unequal(self):
        cat = C("NP")
        assert (cat == "NP") is False
        assert (cat != "NP") is True
        assert (cat == None) is False   # noqa: E711
        assert (cat == ("NP",)) is False

    def test_composed_category_is_the_parsed_one(self):
        assert compose(C("S/NP"), C("NP/N"), FORWARD) is C("S/N")
        assert compose(C("S\\PP"), C("PP\\NP"), BACKWARD) is C("S\\NP")

    @pytest.mark.parametrize("text", ["NP", "S[dcl]", "((S[dcl]\\NP)/PP)/NP"])
    def test_unpickled_category_is_the_parsed_one(self, text):
        assert pickle.loads(pickle.dumps(C(text))) is C(text)

    def test_pickle_carries_no_hash_seed(self, tmp_path):
        # the cached hash of a string-built category depends on the
        # interpreter's hash seed, so unpickling must recompute it
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        text = "((S[dcl]\\NP)/PP)/NP"
        path = str(tmp_path / "cat.pkl")
        dump = ("import pickle, sys\n"
                "from ccgmwe.categories import parse_category\n"
                "with open(sys.argv[2], 'wb') as handle:\n"
                "    pickle.dump(parse_category(sys.argv[1]), handle)\n")
        load = ("import pickle, sys\n"
                "from ccgmwe.categories import parse_category\n"
                "with open(sys.argv[2], 'rb') as handle:\n"
                "    cat = pickle.load(handle)\n"
                "print({parse_category(sys.argv[1]): 'found'}.get(cat))\n")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1")
        subprocess.run([sys.executable, "-c", dump, text, path], env=env,
                       check=True)
        env["PYTHONHASHSEED"] = "2"
        loaded = subprocess.run([sys.executable, "-c", load, text, path],
                                env=env, check=True, capture_output=True,
                                text=True)
        assert loaded.stdout.strip() == "found"


def _rebuild(cat):
    if cat.is_atom():
        return Category(atom=cat.atom, feature=cat.feature)
    return Category(result=_rebuild(cat.result), direction=cat.direction,
                    argument=_rebuild(cat.argument))
