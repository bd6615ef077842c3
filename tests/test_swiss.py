"""Bundled federation preset: weights, electorate, channel assignments."""

import pytest

from votewire.counts import accumulate
from votewire.errors import ParseError
from votewire.swiss import (
    canton_id,
    channel_assignments,
    federal_id,
    load_cantons,
    parse_cantons,
    read_rows,
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


@pytest.mark.parametrize("tag", ["postal_final", "pigeon"])
def test_channel_tag_must_name_an_unsigned_preset(tag):
    row = f"code,name,half_votes,eligible_voters,channel\nZH,Zürich,2,907623,{tag}\n"
    with pytest.raises(ParseError) as exc:
        parse_cantons(row)
    assert str(exc.value) == f"swiss_cantons.csv row 2: unknown channel tag {tag!r}"


@pytest.mark.parametrize("field", ["half_votes", "eligible_voters"])
@pytest.mark.parametrize("value", ["+2", "2_0", "\u0662", "02", " 2"])
def test_numbers_must_be_canonical_decimals(field, value):
    numbers = {"half_votes": "2", "eligible_voters": "907623", field: value}
    row = (
        "code,name,half_votes,eligible_voters,channel\n"
        f"ZH,Zürich,{numbers['half_votes']},{numbers['eligible_voters']},dedicated\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_cantons(row)
    assert str(exc.value) == (
        f"swiss_cantons.csv row 2: {field}: expected a canonical decimal, found {value!r}"
    )


HEADER = "code,name,half_votes,eligible_voters,channel"
ZH = "ZH,Zürich,2,907623,dedicated"


def refusal(text):
    with pytest.raises(ParseError) as exc:
        parse_cantons(text)
    return str(exc.value)


def test_a_missing_column_names_its_row():
    rows = "code,name,half_votes,channel\nZH,Zürich,2,dedicated\n"
    assert refusal(rows) == f"swiss_cantons.csv row 1: header must be {HEADER}"


def test_a_reordered_header_is_refused():
    rows = "name,code,half_votes,eligible_voters,channel\nZürich,ZH,2,907623,dedicated\n"
    assert refusal(rows) == f"swiss_cantons.csv row 1: header must be {HEADER}"


def test_a_sixth_field_is_refused():
    assert refusal(f"{HEADER}\n{ZH},extra\n") == "swiss_cantons.csv row 2: expected 5 fields, got 6"


def test_a_short_row_is_refused_by_its_field_count():
    rows = f"{HEADER}\n{ZH}\nBE,Bern,2,740000\n"
    assert refusal(rows) == "swiss_cantons.csv row 3: expected 5 fields, got 4"


def test_a_cr_only_table_is_refused():
    assert refusal(f"{HEADER}\r{ZH}\r") == (
        "swiss_cantons.csv row 1: holds line break '\\r'; rows end at LF or CRLF"
    )


def test_a_line_separator_in_a_name_is_refused_by_its_row():
    name = "Zü\u2028rich"
    rows = f"{HEADER}\n{ZH.replace('Zürich', name)}\n"
    assert refusal(rows) == (
        "swiss_cantons.csv row 2: holds line break '\\u2028'; rows end at LF or CRLF"
    )


def test_a_field_past_the_csv_size_limit_is_a_parse_error():
    # The csv module refuses a field over 131,072 characters.
    rows = f"{HEADER}\n{ZH.replace('Zürich', 'Z' * 131_073)}\n"
    assert refusal(rows) == "swiss_cantons.csv row 2: field larger than field limit (131072)"


def test_a_quoted_line_feed_is_refused_where_it_opens():
    rows = f'{HEADER}\n{ZH}\nBE,"Be\nrn",2,740000,telephone\n'
    assert refusal(rows) == "swiss_cantons.csv row 3: a quoted field holds a line break"


def test_a_quote_that_never_closes_is_refused():
    # Non-strict csv read the last field as dedicated.
    rows = f'{HEADER}\nZH,Zürich,2,907623,"dedicated'
    assert refusal(rows) == "swiss_cantons.csv row 2: unexpected end of data"


def test_text_after_a_closing_quote_is_refused():
    # Non-strict csv read "Zür"ich as Zürich.
    rows = f'{HEADER}\nZH,"Zür"ich,2,907623,dedicated\n'
    assert refusal(rows) == "swiss_cantons.csv row 2: ',' expected after '\"'"


def test_a_quote_inside_a_field_and_an_empty_quoted_field_still_parse():
    rows = read_rows('h1,h2,h3\na"b,"",""""\n', ("h1", "h2", "h3"), "")
    assert list(rows) == [("row 2", ['a"b', "", '"'])]


def test_crlf_rows_read_as_lf_rows():
    lf = f"{HEADER}\n{ZH}\n"
    assert parse_cantons(lf.replace("\n", "\r\n")) == parse_cantons(lf)


def test_a_repeated_canton_code_is_refused():
    rows = (
        "code,name,half_votes,eligible_voters,channel\n"
        "ZH,Zürich,2,907623,dedicated\n"
        "ZH,Zürich,2,907623,dedicated\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_cantons(rows)
    assert str(exc.value) == "swiss_cantons.csv: duplicate canton code"


def test_display_names_cover_known_cantons():
    names = {c.code: c.name for c in load_cantons()}
    assert names["GR"] == "Graubünden"
    assert names["ZG"] == "Zug"
    assert names["BL"] == "Basel-Landschaft"


def test_bundled_table_is_parsed_once_per_process():
    assert load_cantons() is load_cantons()
