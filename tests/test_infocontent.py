"""Tests for information arguments and contents (Section 5.4 notation)."""

from __future__ import annotations

from repro.core.infocontent import ArgKind, InfoArg, InfoContent

from cdm_reference import SweepContent


def arg(kind: ArgKind, t: str, constrained: bool = False) -> InfoArg:
    return InfoArg(kind, t, constrained)


class TestInfoArg:
    def test_notation_matches_paper(self):
        assert arg(ArgKind.SELF, "t1").notation() == "t1"
        assert arg(ArgKind.SELF, "t1", True).notation() == "~t1"
        assert arg(ArgKind.ANCESTOR, "t2").notation() == "a t2"
        assert arg(ArgKind.ANCESTOR, "t2", True).notation() == "a ~t2"
        assert arg(ArgKind.PARENT, "t3").notation() == "p t3"
        assert arg(ArgKind.PARENT, "t3", True).notation() == "p ~t3"

    def test_removable_forms(self):
        assert arg(ArgKind.ANCESTOR, "t").is_removable_form
        assert arg(ArgKind.PARENT, "t").is_removable_form
        assert not arg(ArgKind.ANCESTOR, "t", True).is_removable_form
        assert not arg(ArgKind.SELF, "t").is_removable_form

    def test_ordering_self_first(self):
        args = sorted(
            [arg(ArgKind.PARENT, "a"), arg(ArgKind.SELF, "z"), arg(ArgKind.ANCESTOR, "m")]
        )
        assert [a.kind for a in args] == [ArgKind.SELF, ArgKind.ANCESTOR, ArgKind.PARENT]

    def test_hashable(self):
        assert len({arg(ArgKind.SELF, "t"), arg(ArgKind.SELF, "t")}) == 1


class TestInfoContent:
    def test_set_self_replaces(self):
        content = InfoContent()
        content.set_self("t", True)
        content.set_self("t", False)
        assert content.self_arg() == arg(ArgKind.SELF, "t")
        assert len(content) == 1

    def test_sources_only_for_removable_forms(self):
        content = InfoContent()
        content.add(arg(ArgKind.ANCESTOR, "x"), source=7)
        content.add(arg(ArgKind.ANCESTOR, "y", True), source=8)
        assert content.sources_of(arg(ArgKind.ANCESTOR, "x")) == {7}
        assert content.sources_of(arg(ArgKind.ANCESTOR, "y", True)) == set()

    def test_merge_same_argument_from_two_children(self):
        content = InfoContent()
        content.add(arg(ArgKind.PARENT, "x"), source=1)
        content.add(arg(ArgKind.PARENT, "x"), source=2)
        assert content.sources_of(arg(ArgKind.PARENT, "x")) == {1, 2}
        assert len(content) == 1

    def test_drop_source_kills_exhausted_argument(self):
        content = SweepContent()
        target = arg(ArgKind.PARENT, "x")
        content.add(target, source=1)
        content.drop_source(target, 1)
        assert not content.has(target)

    def test_is_live(self):
        content = SweepContent()
        content.set_self("t", True)
        target = arg(ArgKind.ANCESTOR, "x")
        content.add(target, source=3)
        constrained = arg(ArgKind.ANCESTOR, "y", True)
        content.add(constrained)
        assert content.is_live(content.self_arg())
        assert content.is_live(target)
        assert content.is_live(constrained)
        content.drop_source(target, 3)
        assert not content.is_live(target)

    def test_removable_args_sorted(self):
        content = SweepContent()
        content.add(arg(ArgKind.PARENT, "b"), source=1)
        content.add(arg(ArgKind.ANCESTOR, "a"), source=2)
        removable = content.removable_args()
        assert removable == [arg(ArgKind.ANCESTOR, "a"), arg(ArgKind.PARENT, "b")]

    def test_notation_orders_self_first(self):
        content = InfoContent()
        content.add(arg(ArgKind.ANCESTOR, "t5", True))
        content.set_self("t1", True)
        content.add(arg(ArgKind.PARENT, "t2", True))
        assert content.notation() == "~t1, a ~t5, p ~t2"

    def test_drop(self):
        content = SweepContent()
        constrained = arg(ArgKind.ANCESTOR, "y", True)
        content.add(constrained)
        content.drop(constrained)
        assert not content.has(constrained)
        content.drop(constrained)  # idempotent
