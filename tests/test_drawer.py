"""``gen.interval_drawer`` against :mod:`random` itself: it draws through
``getrandbits`` as ``randrange`` and ``choice`` do, so every seed must give
the same intervals and leave the same generator state.

The tests use plain asserts and import no pytest, so that the comparison
also runs as a script on interpreters without it::

    PYTHONPATH=src python3 tests/test_drawer.py
"""

from random import Random

from tstd.gen import interval_drawer
from tstd.streams import Message

TAGS = "abcdefghi"


class _NoZeroBits(Random):
    """A Random that refuses ``getrandbits(0)``, which returns 0 for ever."""

    def getrandbits(self, k):
        assert k > 0, "getrandbits(0) drawn"
        return super().getrandbits(k)


def _by_random(rng, messages, max_len):
    """One interval as ``randrange`` and ``choice`` draw it."""
    return tuple(rng.choice(messages) for _ in range(rng.randrange(max_len + 1)))


def test_drawer_matches_randrange_then_choice():
    # Alphabets of 1 to 9 tags and bounds of 1 to 10: powers of two and not.
    for size in range(1, 10):
        alphabet = TAGS[:size]
        messages = tuple(Message(tag) for tag in alphabet)
        for max_len in range(10):
            draw = interval_drawer(alphabet, max_len)
            for seed in range(50):
                ours, theirs = _NoZeroBits(seed), Random(seed)
                got = [draw(ours) for _ in range(8)]
                want = [_by_random(theirs, messages, max_len) for _ in range(8)]
                assert got == want, (size, max_len, seed)
                assert ours.getstate() == theirs.getstate(), (size, max_len, seed)


def test_empty_alphabet_raises_once_a_message_is_drawn():
    for max_len in range(4):
        draw = interval_drawer((), max_len)
        for seed in range(50):
            ours, theirs = _NoZeroBits(seed), Random(seed)
            if theirs.randrange(max_len + 1):
                try:
                    draw(ours)
                except IndexError:
                    pass
                else:
                    raise AssertionError(f"no IndexError (max_len {max_len}, seed {seed})")
            else:
                assert draw(ours) == ()
            assert ours.getstate() == theirs.getstate(), (max_len, seed)


def test_negative_max_len_raises_before_any_draw():
    try:
        interval_drawer(TAGS, -1)
    except ValueError as exc:
        assert "max_len" in str(exc)
    else:
        raise AssertionError("no ValueError")


if __name__ == "__main__":
    import sys

    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(f"drawer matches random on Python {sys.version.split()[0]}")
