"""The bounded memo that every memo kept across calls uses."""

from cmzv.memo import Memo


def test_get_reads_what_put_stored():
    memo = Memo(10)
    assert memo.get("a") is None
    memo.put("a", 1)
    memo.put("b", [2], size=3)
    assert (memo.get("a"), memo.get("b"), memo.held) == (1, [2], 4)


def test_a_store_past_the_cap_empties_the_memo_first():
    memo = Memo(10)
    memo.put("a", 1, size=6)
    memo.put("b", 2, size=4)
    assert set(memo.entries) == {"a", "b"} and memo.held == 10
    memo.put("c", 3, size=1)
    assert memo.entries == {"c": 3} and memo.held == 1


def test_a_value_larger_than_the_cap_is_never_stored():
    memo = Memo(10)
    memo.put("a", 1)
    memo.put("big", 2, size=11)
    assert memo.entries == {"a": 1} and memo.held == 1


def test_a_stored_value_stays_unless_the_new_one_replaces_it():
    memo = Memo(10)
    memo.put("a", (2.0, "first"))
    memo.put("a", (1.0, "second"))
    assert memo.get("a") == (2.0, "first")
    memo.put("a", (3.0, "worse"), replaces=lambda old: 3.0 < old[0])
    assert memo.get("a") == (2.0, "first")
    memo.put("a", (1.0, "better"), replaces=lambda old: 1.0 < old[0])
    assert memo.get("a") == (1.0, "better")


def test_clear_empties_in_place():
    memo = Memo(10)
    get = memo.get
    memo.put("a", 1, size=5)
    memo.clear()
    assert memo.entries == {} and memo.held == 0
    memo.put("b", 2)
    assert get("b") == 2  # reads through a saved get see later stores
