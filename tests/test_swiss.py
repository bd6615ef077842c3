"""Bundled federation preset: weights, electorate, channel assignments."""


from votewire.counts import accumulate
from votewire.swiss import (
    canton_id,
    channel_assignments,
    federal_id,
    load_cantons,
    swiss_tree,
)


def test_twenty_six_cantons_with_six_half_votes():
    cantons = load_cantons()
    assert len(cantons) == 26
    halves = {c.code for c in cantons if c.half_votes == 1}
    assert halves == {"OW", "NW", "BS", "BL", "AI", "AR"}
    assert all(c.half_votes in (1, 2) for c in cantons)


def test_weights_sum_to_twenty_three_votes():
    tree = swiss_tree()
    assert tree.total_half_votes() == 46


def test_tree_shape_and_electorate():
    tree = swiss_tree()
    assert tree.root == federal_id()
    assert len(tree.children(tree.root)) == 26
    assert tree.leaves() == tree.cantons()
    assert tree.eligible_voters[canton_id("ZH")] == 907_623
    assert tree.eligible_voters[tree.root] == sum(
        tree.eligible_voters[c] for c in tree.cantons()
    )


def test_every_canton_has_a_channel_assignment():
    channels = channel_assignments()
    assert set(channels) == {c.code for c in load_cantons()}
    assert set(channels.values()) <= {"telephone", "fax", "email", "dedicated"}
    assert channels["BL"] == "telephone"
    assert channels["ZH"] == "dedicated"
    assert channels["ZG"] == "email"


def test_display_names_cover_known_cantons():
    names = {c.code: c.name for c in load_cantons()}
    assert names["GR"] == "Graubünden"
    assert names["ZG"] == "Zug"
    assert names["BL"] == "Basel-Landschaft"
