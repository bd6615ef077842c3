"""Results ingestion and discrepancy statistics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votewire.analysis import (
    HistoricalRecord,
    bundled_results_path,
    canton_final_counts,
    discrepancy_stats,
    load_results,
    parse_results,
)
from votewire.counts import VoteCount
from votewire.errors import ArithmeticOverflow, DuplicateRecord, MissingCanton, ParseError
from votewire.swiss import canton_id, load_cantons, swiss_tree

HEADER = "referendum_id,date,canton,prelim_yes,prelim_no,final_yes,final_no,final_total"


def record(canton, prelim, final, total=None, ref="r1"):
    p_yes, p_no = prelim
    f_yes, f_no = final
    total = total if total is not None else f_yes + f_no
    return HistoricalRecord(
        referendum_id=ref,
        canton=canton,
        preliminary=VoteCount(yes=p_yes, no=p_no),
        final=VoteCount(yes=f_yes, no=f_no, blank=total - f_yes - f_no),
    )


class TestParsing:
    def test_bundled_maxima_sample_has_all_cantons_and_federal_row(self):
        records = load_results(bundled_results_path("discrepancy_maxima"))
        assert len(records) == 27
        assert {r.canton for r in records} == {c.code for c in load_cantons()} | {"CH"}

    def test_header_only_file_is_empty(self):
        assert parse_results(HEADER + "\n") == []

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="row 1"):
            parse_results("a,b,c\n")
        with pytest.raises(ParseError, match="row 1"):
            parse_results("")

    def test_bad_integer_reports_row_number(self):
        text = HEADER + "\nr1,2015-06-14,ZH,1,2,3,x,10\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_results(text)

    def test_bad_date_reports_row_number(self):
        text = HEADER + "\nr1,2015-99-14,ZH,1,2,3,4,10\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_results(text)

    @pytest.mark.parametrize("count", ["1_000", " +5 ", "\u0663", "0005", "-0"])
    def test_counts_must_be_canonical_decimals(self, count):
        text = HEADER + f"\nr1,2015-06-14,ZH,{count},2,3,4,10\n"
        with pytest.raises(ParseError) as exc:
            parse_results(text)
        assert str(exc.value) == f"row 2: prelim_yes: expected a canonical decimal, found {count!r}"

    @pytest.mark.parametrize("date", ["20150614", "2015-W24-7", "2015W247"])
    def test_dates_must_be_year_month_day(self, date):
        # Python 3.11+ reads each of these as 2015-06-14; 3.10 refuses them.
        text = HEADER + f"\nr1,{date},ZH,1,2,3,4,10\n"
        with pytest.raises(ParseError) as exc:
            parse_results(text)
        assert str(exc.value) == f"row 2: bad date {date!r}"

    def test_count_past_the_64_bit_range_names_its_row(self):
        top = 2**63 - 1
        (rec,) = parse_results(HEADER + f"\nr1,2015-06-14,ZH,{top},0,0,0,{top}\n")
        assert rec.preliminary.yes == rec.final.blank == top
        text = HEADER + f"\nr1,2015-06-14,ZH,1,2,3,4,10\nr1,2015-06-14,BE,1,2,3,4,{top + 1}\n"
        with pytest.raises(ArithmeticOverflow) as exc:
            parse_results(text)
        assert str(exc.value) == f"row 3: final_total={top + 1} exceeds the 64-bit count range"

    def test_short_row_reports_row_number(self):
        text = HEADER + "\nr1,2015-06-14,ZH,1,2,3\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_results(text)

    def test_a_ninth_field_is_refused(self):
        with pytest.raises(ParseError) as exc:
            parse_results(HEADER + "\nr1,2015-06-14,ZH,1,2,3,4,7,8\n")
        assert str(exc.value) == "row 2: expected 8 fields, got 9"

    def test_total_smaller_than_yes_plus_no_rejected(self):
        text = HEADER + "\nr1,2015-06-14,ZH,1,2,30,40,50\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_results(text)

    def test_duplicate_canton_in_one_referendum_rejected(self):
        row = "r1,2015-06-14,VD,1,2,3,4,10"
        with pytest.raises(DuplicateRecord):
            parse_results(f"{HEADER}\n{row}\n{row}\n")

    def test_same_canton_in_two_referendums_is_fine(self):
        text = (
            f"{HEADER}\n"
            "r1,2015-06-14,VD,1,2,3,4,10\n"
            "r2,2013-03-03,VD,1,2,3,4,10\n"
        )
        assert len(parse_results(text)) == 2

    def test_blank_share_of_total_is_preserved(self):
        text = HEADER + "\nr1,2015-06-14,GE,1,2,30,40,100\n"
        (rec,) = parse_results(text)
        assert rec.final.blank == 30
        assert rec.final_total() == 100

    @pytest.mark.parametrize("row", [",2015-06-14,ZH,1,2,3,4,7", "r1,2015-06-14,,1,2,3,4,7"])
    def test_referendum_and_canton_must_be_nonempty(self, row):
        with pytest.raises(ParseError) as exc:
            parse_results(f"{HEADER}\n{row}\n")
        assert str(exc.value) == "row 2: referendum_id and canton must be nonempty"

    def test_a_blank_line_between_rows_is_skipped(self):
        text = f"{HEADER}\nr1,2015-06-14,ZH,1,2,3,4,7\n\nr1,2015-06-14,BE,1,2,3,4,7\n"
        assert [r.canton for r in parse_results(text)] == ["ZH", "BE"]


class TestRowBreaks:
    """A row ends at LF or CRLF; any other line break str.splitlines knows is refused."""

    ZH, BE = "r,2015-06-14,ZH,1,2,3,4,7", "r,2015-06-14,BE,1,2,3,4,7"

    def test_crlf_rows_read_as_lf_rows(self):
        lf = f"{HEADER}\n{self.ZH}\n{self.BE}\n"
        assert parse_results(lf.replace("\n", "\r\n")) == parse_results(lf)

    def test_a_line_separator_does_not_split_a_row(self):
        with pytest.raises(ParseError) as exc:
            parse_results(f"{HEADER}\n{self.ZH}\u2028{self.BE}\n")
        assert str(exc.value) == "row 2: holds line break '\\u2028'; rows end at LF or CRLF"

    def test_a_stray_break_is_named_by_its_own_row(self):
        # A break splitlines knows would shift every later row's number.
        with pytest.raises(ParseError) as exc:
            parse_results(f"{HEADER}\n{self.ZH}\u2028\nr,2015-06-14,BE,x,2,3,4,7\n")
        assert str(exc.value) == "row 2: holds line break '\\u2028'; rows end at LF or CRLF"

    @pytest.mark.parametrize(
        "ch", "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", ids=lambda ch: f"U+{ord(ch):04X}"
    )
    def test_every_other_break_is_refused(self, ch):
        with pytest.raises(ParseError) as exc:
            parse_results(f"{HEADER}\n{self.ZH}\n{self.BE.replace('BE', f'B{ch}E')}\n")
        assert str(exc.value) == f"row 3: holds line break {ch!r}; rows end at LF or CRLF"

    def test_a_cr_only_file_is_refused(self):
        with pytest.raises(ParseError) as exc:
            parse_results(f"{HEADER}\r{self.ZH}\r")
        assert str(exc.value) == "row 1: holds line break '\\r'; rows end at LF or CRLF"

    def test_a_cr_only_file_is_refused_as_read_from_disk(self, tmp_path):
        cr_only = tmp_path / "cr.csv"
        cr_only.write_bytes(f"{HEADER}\r{self.ZH}\r".encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            load_results(cr_only)
        assert str(exc.value) == "row 1: holds line break '\\r'; rows end at LF or CRLF"

    def test_a_quoted_line_feed_is_refused_not_joined(self):
        # csv.reader over split lines would read "r\n1" as the id r1.
        with pytest.raises(ParseError) as exc:
            parse_results(f'{HEADER}\n"r\n1",2015-06-14,ZH,1,2,3,4,7\n')
        assert str(exc.value) == "row 2: a quoted field holds a line break"

    def test_rows_after_a_quoted_line_feed_keep_their_physical_numbers(self):
        # The bad count sits on line 5; joining lines 3 and 4 would call it row 4.
        text = f'{HEADER}\n{self.ZH}\n"r\n",2015-06-14,BE,1,2,3,4,7\nr,2015-06-14,GE,x,2,3,4,7\n'
        with pytest.raises(ParseError) as exc:
            parse_results(text)
        assert str(exc.value) == "row 3: a quoted field holds a line break"

    def test_a_quote_that_never_closes_is_refused(self):
        # Non-strict csv read the last field as 7.
        with pytest.raises(ParseError) as exc:
            parse_results(f'{HEADER}\n{self.ZH}\nr,2015-06-14,BE,1,2,3,4,"7')
        assert str(exc.value) == "row 3: unexpected end of data"

    def test_text_after_a_closing_quote_is_refused(self):
        # Non-strict csv read "r"1 as the id r1.
        with pytest.raises(ParseError) as exc:
            parse_results(f'{HEADER}\n"r"1,2015-06-14,ZH,1,2,3,4,7\n')
        assert str(exc.value) == "row 2: ',' expected after '\"'"

    def test_a_quote_left_open_is_refused_where_it_opens(self):
        with pytest.raises(ParseError) as exc:
            parse_results(f'{HEADER}\nr,2015-06-14,ZH,1,2,3,4,"7\n{self.BE}\n')
        assert str(exc.value) == "row 2: a quoted field holds a line break"

    def test_a_csv_module_error_is_a_parse_error(self):
        # A field past the csv module's size limit, 131,072 characters.
        with pytest.raises(ParseError) as exc:
            parse_results(f"{HEADER}\n{self.ZH}\nr,2015-06-14,BE,1,2,3,4,{'7' * 200_000}\n")
        assert str(exc.value) == "row 3: field larger than field limit (131072)"


class TestDiscrepancyStats:
    def test_reproduces_published_percentages(self):
        records = load_results(bundled_results_path("discrepancy_maxima"))
        summary = discrepancy_stats(records)
        for canton, votes, total, percent in [
            ("VD", 3974, 177_616, 2.24),
            ("JU", 548, 20_178, 2.72),
            ("AG", 1090, 131_179, 0.83),
            ("CH", 3843, 2_039_548, 0.19),
        ]:
            (stat,) = [s for s in summary.per_canton if s.canton == canton]
            assert stat.max_abs_discrepancy == votes
            assert stat.total_at_max == total
            assert abs(stat.max_relative_percent() - percent) <= 0.01

    def test_exact_canton_never_deviates(self):
        summary = discrepancy_stats(
            [record("AI", (10, 20), (10, 20)), record("AI", (5, 5), (5, 5), ref="r2")]
        )
        (stat,) = summary.per_canton
        assert stat.max_abs_discrepancy == 0
        assert stat.max_relative_percent() == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            discrepancy_stats([])

    def test_aggregates_average_over_referendums(self):
        records = [
            record("VD", (90, 110), (100, 100), ref="a"),
            record("CH", (190, 210), (200, 200), ref="a"),
            record("VD", (100, 100), (100, 100), ref="b"),
            record("CH", (201, 199), (200, 200), ref="b"),
        ]
        summary = discrepancy_stats(records)
        assert summary.federal_average_discrepancy == Fraction(20 + 2, 2)
        assert summary.average_max_cantonal_discrepancy == Fraction(20 + 0, 2)

    def test_outlier_is_reported_not_filtered(self):
        records = load_results(bundled_results_path("family_2013"))
        summary = discrepancy_stats(records)
        (stat,) = [s for s in summary.per_canton if s.canton == "GE"]
        assert stat.max_abs_discrepancy == 44_821
        assert stat.total_at_max == 109_433
        assert round(100 * float(stat.max_relative)) == 41

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 500), st.integers(0, 500),
                st.integers(0, 500), st.integers(0, 500),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_swapping_columns_keeps_max_abs(self, raw):
        fwd = [record(f"C{i}", (py, pn), (fy, fn)) for i, (py, pn, fy, fn) in enumerate(raw)]
        rev = [record(f"C{i}", (fy, fn), (py, pn), total=py + pn)
               for i, (py, pn, fy, fn) in enumerate(raw)]
        for a, b in zip(discrepancy_stats(fwd).per_canton, discrepancy_stats(rev).per_canton):
            assert a.max_abs_discrepancy == b.max_abs_discrepancy


class TestCantonFinalCounts:
    def test_keys_final_counts_by_canton_and_skips_the_federal_row(self):
        tree = swiss_tree()
        records = [record(c.name, (1, 1), (3, 2)) for c in tree.cantons()]
        records.append(record("CH", (26, 26), (78, 52)))
        counts = canton_final_counts(records, tree)
        assert set(counts) == set(tree.cantons())
        assert counts[canton_id("ZH")] == VoteCount(3, 2)

    def test_names_missing_and_unknown_cantons(self):
        tree = swiss_tree()
        with pytest.raises(MissingCanton, match=r"no final counts for: AG, AI, AR"):
            canton_final_counts([record("ZH", (10, 5), (10, 5))], tree)
        with pytest.raises(MissingCanton, match="XX is not a canton"):
            canton_final_counts([record("XX", (10, 5), (10, 5))], tree)
