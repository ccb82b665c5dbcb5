"""The mutation census stays current.  ``python tests/mutants.py`` runs the census
itself (a CI step after Tier-1); here each entry's snippet occurs exactly once in its
file and names a test, and a planted stale entry is reported."""

from mutants import MUTANTS, ROOT, stale


def test_every_census_entry_is_current():
    assert len(MUTANTS) >= 10
    assert stale() == []


def test_a_stale_snippet_or_an_entry_without_tests_is_reported():
    entry = MUTANTS[0]
    repeats = (ROOT / entry.file).read_text().count("return")
    assert repeats > 1
    planted = [entry._replace(snippet="no such line"), entry._replace(snippet="return"),
               entry._replace(nodes=()), entry]
    assert stale(planted) == [
        f"{entry.file}: snippet 'no such line' occurs 0 times",
        f"{entry.file}: snippet 'return' occurs {repeats} times",
        f"{entry.file}: no test named for {entry.invariant!r}",
    ]
