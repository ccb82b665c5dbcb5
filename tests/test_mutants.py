"""The mutation census stays current.  ``python tests/mutants.py`` runs the census
itself (a CI step after Tier-1); here every guard in the package has exactly one entry,
each mutant's snippet occurs exactly once in its file, every entry names a test, and
the guard enumerator and the stale check are run on planted sources."""

import pytest

from mutants import MUTANTS, ROOT, Guard, find_guards, neutralize, stale

PLANTED = """
def f(x):
    if x < 0:
        raise ValueError("negative")
    elif x > 9:
        raise ValueError("large")
    if x == 3:
        return 1
    try:
        return {1: 2}[x]
    except KeyError:
        raise ValueError("unknown") from None
"""


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


def test_the_enumerator_finds_if_elif_and_except_guards_and_neutralizes_each():
    # the `if x == 3` returns, so it is not a guard
    sites = find_guards(PLANTED)
    assert [(s.function, s.condition) for s in sites] == [
        ("f", "x < 0"), ("f", "x > 9"), ("f", "except KeyError")]
    assert "    if False:\n" in neutralize(PLANTED, sites[0])
    assert "    elif False:\n" in neutralize(PLANTED, sites[1])
    assert "    except KeyError:\n        raise\n" in neutralize(PLANTED, sites[2])
    namespace = {}
    exec(neutralize(PLANTED, sites[2]), namespace)
    with pytest.raises(KeyError):  # re-raised, not translated
        namespace["f"](5)


def test_a_guard_without_entry_and_an_entry_without_guard_are_reported():
    table = [Guard("x.py", "f", "x < 0", ("t",)), Guard("x.py", "f", "x > 99", ("t",)),
             Guard("x.py", "f", "except KeyError", ())]
    assert stale([], guards=table, sources={"x.py": PLANTED}) == [
        "x.py: guard f: 'x > 9' has no entry",
        "x.py: entry f: 'x > 99' matches no guard",
        "x.py: no test named for f: 'except KeyError'",
    ]
