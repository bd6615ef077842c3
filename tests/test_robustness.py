"""Mutated inputs: every reader parses them or refuses with a ``VotewireError``.

Five readers take text from outside the program: the scenario JSON, the
results CSV, the canton CSV, the signed-report wire text and a ``.cert``
file. Each property below mutates a bundled (or freshly provisioned) input
of one reader a few characters at a time, and asks only that the reader
either returns or raises a ``VotewireError``, which the CLI reports with
exit 2; any other exception would be its internal-error exit 1. The wire
text and a certificate have exactly one text each, so whatever of theirs
still parses must re-encode to the text it was read from.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from hypothesis import example, given
from hypothesis import strategies as st

from votewire.analysis import parse_results
from votewire.counts import VoteCount
from votewire.errors import VotewireError
from votewire.reports import Report, ReportKind
from votewire.scenario import parse_scenario
from votewire.secauth import (
    provision_tree,
    sign_report,
    signed_report_from_text,
    signed_report_to_text,
)
from votewire.secauth.pki import certificate_from_text
from votewire.swiss import parse_cantons
from votewire.tree import JurisdictionId, tree_from_paths

USTER = JurisdictionId.of("CH", "ZH", "Uster")
SCENARIOS = ("swiss_honest", "swiss_tamper", "swiss_delay_noise")
# Characters the five grammars give a meaning to, and breaks they refuse.
SPECIAL = ',"\n\r\x00=.:-_/{}[] 0123456789eE \x85é'


def bundled(name: str) -> str:
    return resources.files("votewire.data").joinpath(name).read_bytes().decode("utf-8")


@functools.cache
def provisioned():
    return provision_tree(tree_from_paths([USTER.path]), seed=b"robustness")


def signed_wire_text() -> str:
    report = Report("ref-1", USTER, 3, VoteCount(120, 80, 3, 1), ReportKind.PRELIMINARY, 0)
    keys = provisioned()
    return signed_report_to_text(sign_report(keys.keys[USTER], keys.chain(USTER), report))


def certificate_text() -> str:
    return provisioned().chain(USTER)[-1].to_text()


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to three edits, each replacing up to four characters
    at a drawn offset with a few special characters or a slice of ``text``."""
    original = text
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        start = draw(st.integers(0, len(original)))
        insert = draw(
            st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=4)
            | st.integers(1, 40).map(lambda n: original[start:start + n])
        )
        text = text[:at] + insert + text[at + draw(st.integers(0, 4)):]
    return text


def read(reader, text: str):
    """``reader(text)``, or None when the reader refuses the text."""
    try:
        return reader(text)
    except VotewireError:
        return None


@given(text=st.sampled_from(SCENARIOS).flatmap(
    lambda name: mutated(bundled(f"scenarios/{name}.json"))
))
def test_scenario_text(text):
    read(parse_scenario, text)


# Values the scenario keys take, so that a replacement can get past the type checks.
WORDS = st.sampled_from([
    "CH", "CH/ZH", "CH/BL", "CH/XX", "swiss", "fax", "email", "postal_final", "tamper",
    "delay", "front_run", "shift", "swap_yes_no", "set_counts", "yes_to_no", "popular",
    "double", "rtvg_2015", "family_2013", "preliminary", "final",
])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | WORDS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(WORDS | st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def _slots(value, slots: list) -> list:
    """Every (container, key) in a JSON document, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in list(items):
        slots.append((value, key))
        if isinstance(inner, (dict, list)):
            _slots(inner, slots)
    return slots


@st.composite
def mutated_documents(draw) -> str:
    """A bundled scenario with one to three values replaced or keys dropped."""
    document = json.loads(bundled(f"scenarios/{draw(st.sampled_from(SCENARIOS))}.json"))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(document, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return json.dumps(document)


@given(text=mutated_documents())
def test_scenario_document(text):
    read(parse_scenario, text)


@given(text=st.sampled_from(["rtvg_2015", "family_2013", "discrepancy_maxima"]).flatmap(
    lambda name: mutated(bundled(f"{name}.csv"))
))
def test_results_table(text):
    read(parse_results, text)


@given(text=st.deferred(lambda: mutated(bundled("swiss_cantons.csv"))))
# Past the csv module's 131,072-character field limit.
@example(text=bundled("swiss_cantons.csv").replace("Zürich", "Z" * 131_073))
def test_canton_table(text):
    read(parse_cantons, text)


@given(text=st.deferred(lambda: mutated(signed_wire_text())))
def test_signed_report_wire_text(text):
    signed = read(signed_report_from_text, text)
    if signed is not None:
        assert signed_report_to_text(signed) == text


@given(text=st.deferred(lambda: mutated(certificate_text())))
def test_certificate_text(text):
    certificate = read(certificate_from_text, text)
    if certificate is not None:
        assert certificate.to_text() == text
