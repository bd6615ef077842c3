"""Jurisdiction identifiers and tree validation."""

import pickle

import pytest

from helpers import canton_id, make_canton_tree
from votewire.tree import JurisdictionId, JurisdictionTree, tree_from_paths


class TestJurisdictionId:
    def test_round_trips_through_text(self):
        jid = JurisdictionId.of("CH", "ZH", "Uster")
        assert str(jid) == "CH/ZH/Uster"
        assert JurisdictionId.from_text("CH/ZH/Uster") == jid

    def test_parent_depth_name(self):
        jid = JurisdictionId.of("CH", "ZH", "Uster")
        assert jid.name == "Uster"
        assert jid.depth == 2
        assert jid.parent == JurisdictionId.of("CH", "ZH")
        assert jid.parent.parent.parent is None

    @pytest.mark.parametrize("segment", ["a/b", "a\nb", ""])
    def test_rejects_unrepresentable_segments(self, segment):
        with pytest.raises(ValueError):
            JurisdictionId.of("CH", segment)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            JurisdictionId(())

    def test_cached_hash_keeps_value_semantics(self):
        jid = JurisdictionId.of("CH", "ZH")
        twin = JurisdictionId(("CH", "ZH"))
        assert jid == twin and hash(jid) == hash(twin) == hash((("CH", "ZH"),))
        assert jid != JurisdictionId.of("CH", "BE")
        assert repr(jid) == "JurisdictionId(path=('CH', 'ZH'))"
        assert {jid: 1}[twin] == 1

    def test_pickle_rebuilds_the_hash_in_the_loading_process(self):
        jid = JurisdictionId.of("CH", "ZH")
        # What pickle stores is the path alone, so a process with another
        # string-hash seed recomputes the hash instead of loading a stale one.
        assert jid.__reduce__() == (JurisdictionId, (("CH", "ZH"),))
        assert pickle.loads(pickle.dumps(jid)) == jid

    def test_slash_ban_keeps_text_form_injective(self):
        # No two distinct ids may render to the same string.
        with pytest.raises(ValueError):
            JurisdictionId.of("CH", "ZH/Uster")


class TestJurisdictionTree:
    def test_basic_navigation(self):
        tree = make_canton_tree({"ZH": 2, "OW": 1})
        assert canton_id("ZH") in tree
        assert tree.parent(canton_id("ZH")) == tree.root
        assert tree.children(tree.root) == (canton_id("ZH"), canton_id("OW"))
        assert tree.parent(tree.root) is None
        assert JurisdictionId.of("CH", "XX") not in tree

    def test_cantons_keep_child_order_and_weights(self):
        tree = make_canton_tree({"ZH": 2, "OW": 1, "BE": 2})
        assert tree.cantons() == (canton_id("ZH"), canton_id("OW"), canton_id("BE"))
        assert tree.total_half_votes() == 5

    def test_leaves_of_deep_hierarchy(self):
        tree = tree_from_paths(
            [
                ("CH", "ZH", "Uster", "Station-1"),
                ("CH", "ZH", "Uster", "Station-2"),
                ("CH", "ZH", "Meilen"),
                ("CH", "OW"),
            ],
            canton_half_votes={canton_id("ZH"): 2, canton_id("OW"): 1},
        )
        assert tree.root == JurisdictionId.of("CH")
        assert tree.leaves() == (
            JurisdictionId.of("CH", "OW"),
            JurisdictionId.of("CH", "ZH", "Meilen"),
            JurisdictionId.of("CH", "ZH", "Uster", "Station-1"),
            JurisdictionId.of("CH", "ZH", "Uster", "Station-2"),
        )
        assert tree.cantons() == (canton_id("OW"), canton_id("ZH"))

    def test_rejects_second_parent(self):
        root = JurisdictionId.of("CH")
        a = JurisdictionId.of("CH", "A")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {root: [a, a]})

    def test_rejects_child_whose_path_disagrees_with_parent(self):
        root = JurisdictionId.of("CH")
        stray = JurisdictionId.of("DE", "B")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {root: [stray]})

    def test_rejects_unreachable_subtree(self):
        root = JurisdictionId.of("CH")
        orphan = JurisdictionId.of("CH", "A", "X")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {root: [], orphan: []})

    def test_rejects_weight_outside_half_or_full(self):
        with pytest.raises(ValueError):
            make_canton_tree({"ZH": 3})

    def test_rejects_weight_for_unknown_node(self):
        root = JurisdictionId.of("CH")
        with pytest.raises(ValueError):
            JurisdictionTree(root, {}, {JurisdictionId.of("CH", "ZH"): 2})

    def test_rejects_negative_eligible_voters(self):
        with pytest.raises(ValueError):
            make_canton_tree({"ZH": 2}, eligible={"ZH": -5})

    def test_rejects_parent_with_fewer_eligible_voters_than_children(self):
        root = JurisdictionId.of("CH")
        kids = [JurisdictionId.of("CH", "A"), JurisdictionId.of("CH", "B")]
        with pytest.raises(ValueError):
            JurisdictionTree(
                root,
                {root: kids},
                eligible_voters={root: 10, kids[0]: 6, kids[1]: 5},
            )

    def test_partial_eligible_data_skips_the_parent_check(self):
        root = JurisdictionId.of("CH")
        kids = [JurisdictionId.of("CH", "A"), JurisdictionId.of("CH", "B")]
        tree = JurisdictionTree(
            root,
            {root: kids},
            eligible_voters={root: 10, kids[0]: 9},
        )
        assert tree.eligible_voters[root] == 10


class TestTreeFromPaths:
    def test_creates_intermediate_nodes(self):
        tree = tree_from_paths([("CH", "ZH", "Uster")])
        assert JurisdictionId.of("CH", "ZH") in tree
        assert tree.children(JurisdictionId.of("CH")) == (JurisdictionId.of("CH", "ZH"),)

    def test_rejects_multiple_roots(self):
        with pytest.raises(ValueError):
            tree_from_paths([("CH", "ZH"), ("DE", "BY")])
