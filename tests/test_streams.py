import sys
from random import Random

import pytest
from hypothesis import given, strategies as st

from tstd.operators import (
    InvalidGranularityError,
    LengthMismatchError,
    NonAlignedPrefixError,
    SplitStrategy,
    delay_stream,
    join,
    message_count,
    split,
    timed_merge,
    untimed_abstraction,
)
from tstd.streams import Message, StreamPrefix, _parse_message, interval


def prefix(*ivs):
    return StreamPrefix(tuple(interval(*tokens) for tokens in ivs))


messages = st.builds(
    Message,
    tag=st.sampled_from(["a", "b", "c", "d"]),
    payload=st.one_of(st.none(), st.integers(-5, 5)),
)
intervals = st.lists(messages, max_size=4).map(tuple)
prefixes = st.lists(intervals, max_size=12).map(lambda ivs: StreamPrefix(tuple(ivs)))
strategies = st.sampled_from(list(SplitStrategy))
factors = st.integers(1, 5)


class TestMessage:
    def test_payload_absence_distinct_from_zero(self):
        assert Message("a") != Message("a", 0)
        assert Message("a", 1) == Message("a", 1)

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            Message("1abc")
        with pytest.raises(ValueError):
            Message("")

    @pytest.mark.parametrize("payload", [True, False, 1.5, "1"])
    def test_non_int_payload_rejected(self, payload):
        with pytest.raises(ValueError, match="invalid message payload"):
            Message("a", payload)


def _token_corpus(count, seed=0):
    """Seeded strings near the message-token syntax: valid tokens, and tokens
    with signs, underscores, spaces, non-ASCII digits and letters."""
    rng = Random(seed)
    pieces = ["a", "b", "Z", "x_1", "1", "0", "-", "+", "_", ":", " ", "\t", "٣", "５", "é"]
    return [
        "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 6))) for _ in range(count)
    ]


class TestIntervalTokens:
    """interval() reads a token exactly as the trace reader does."""

    @pytest.mark.parametrize(
        "token", ["a:+5", "a:1_000", "a: 5", "a:", "1a", "a :5", "a:5 ", "a:\u0663", "a:-\uff11"]
    )
    def test_tokens_a_trace_may_not_hold_raise(self, token):
        assert _parse_message(token) is None
        with pytest.raises(ValueError):
            interval(token)

    def test_agrees_with_the_trace_reader(self):
        accepted = 0
        for token in _token_corpus(5000) + ["a", "b:3", "c:-0", "a:٣"]:
            read = _parse_message(token)
            if read is None:
                with pytest.raises(ValueError):
                    interval(token)
            else:
                accepted += 1
                assert interval(token) == (read,)
        assert accepted > 100

    def test_overlong_payload_raises(self):
        with pytest.raises(ValueError):
            interval("a:" + "7" * (sys.get_int_max_str_digits() + 1))


class TestSplit:
    def test_all_first_example(self):
        s = prefix(("a", "b"), ())
        assert split(s, 2, SplitStrategy.ALL_FIRST) == prefix(("a", "b"), (), (), ())

    def test_all_last(self):
        s = prefix(("a", "b"),)
        assert split(s, 3, SplitStrategy.ALL_LAST) == prefix((), (), ("a", "b"))

    def test_spread_example(self):
        # j*n//k for k=3, n=2: messages 0,1 land in bucket 0 and message 2 in bucket 1
        s = prefix(("a", "b", "c"),)
        assert split(s, 2, SplitStrategy.SPREAD) == prefix(("a", "b"), ("c",))

    def test_spread_even(self):
        s = prefix(("a", "b"),)
        assert split(s, 2, SplitStrategy.SPREAD) == prefix(("a",), ("b",))

    @given(prefixes, strategies)
    def test_identity_when_n_is_one(self, s, strat):
        assert split(s, 1, strat) == s

    def test_zero_granularity_rejected(self):
        with pytest.raises(InvalidGranularityError):
            split(prefix(), 0, SplitStrategy.ALL_FIRST)

    @given(prefixes, factors, strategies)
    def test_length_law(self, s, n, strat):
        assert split(s, n, strat).length == n * s.length

    @pytest.mark.parametrize("strat", list(SplitStrategy), ids=lambda s: s.value)
    def test_empty_prefix_with_a_huge_factor(self, strat):
        assert split(prefix(), 10**30, strat) == prefix()


class TestJoin:
    def test_pairs_example(self):
        s = prefix(("a",), ("b",), (), ("c",))
        assert join(s, 2) == prefix(("a", "b"), ("c",))

    def test_identity_when_n_is_one(self):
        s = prefix(("a",), ())
        assert join(s, 1) == s

    def test_non_aligned_rejected(self):
        with pytest.raises(NonAlignedPrefixError):
            join(prefix(("a",), ("b",), ("c",)), 2)

    def test_zero_granularity_rejected(self):
        with pytest.raises(InvalidGranularityError):
            join(prefix(), 0)

    def test_empty_prefix_with_a_huge_factor(self):
        assert join(prefix(), 10**30) == prefix()


class TestRoundTrip:
    @given(prefixes, factors, strategies)
    def test_join_inverts_split(self, s, n, strat):
        assert join(split(s, n, strat), n) == s

    def test_split_does_not_invert_join(self):
        # Witness that the two operators are only one-sided inverses.
        s = prefix((), ("a",))
        assert split(join(s, 2), 2, SplitStrategy.ALL_FIRST) != s


class TestTimedMerge:
    def test_concatenation_example(self):
        assert timed_merge(prefix(("a",)), prefix(("b", "c"))) == prefix(("a", "b", "c"))

    def test_empty_left_is_identity(self):
        s = prefix(("x",), ("y", "z"))
        assert timed_merge(StreamPrefix.empty(2), s) == s

    def test_per_tick_example(self):
        assert timed_merge(prefix(("a",), ()), prefix((), ("b",))) == prefix(("a",), ("b",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            timed_merge(prefix(("a",)), prefix(("a",), ()))

    @given(prefixes, prefixes)
    def test_counts_add_up(self, s1, s2):
        n = min(s1.length, s2.length)
        a = StreamPrefix(s1.intervals[:n])
        b = StreamPrefix(s2.intervals[:n])
        merged = timed_merge(a, b)
        assert message_count(merged) == message_count(a) + message_count(b)
        for t in range(n):
            assert merged[t] == a[t] + b[t]


class TestUntimedAbstraction:
    def test_example(self):
        s = prefix(("a",), (), ("b", "c"))
        assert untimed_abstraction(s) == interval("a", "b", "c")

    def test_all_empty(self):
        assert untimed_abstraction(StreamPrefix.empty(5)) == ()

    @given(prefixes, factors, strategies)
    def test_invariant_under_split(self, s, n, strat):
        assert untimed_abstraction(split(s, n, strat)) == untimed_abstraction(s)

    @given(prefixes, factors)
    def test_invariant_under_join_when_aligned(self, s, n):
        pad = (-s.length) % n
        padded = StreamPrefix(s.intervals + ((),) * pad)
        assert untimed_abstraction(join(padded, n)) == untimed_abstraction(padded)


class TestDelay:
    def test_example(self):
        assert delay_stream(prefix(("a",)), 1) == prefix((), ("a",))

    def test_zero_is_identity(self):
        s = prefix(("a",), ())
        assert delay_stream(s, 0) == s

    @given(prefixes, st.integers(0, 5))
    def test_conservation(self, s, d):
        delayed = delay_stream(s, d)
        assert delayed.length == s.length + d
        assert untimed_abstraction(delayed) == untimed_abstraction(s)
        assert message_count(delayed) == message_count(s)


class TestMessageCount:
    def test_example(self):
        assert message_count(prefix(("a", "b"), ())) == 2

    def test_empty(self):
        assert message_count(StreamPrefix()) == 0

    @given(prefixes, factors, strategies)
    def test_invariant_under_split(self, s, n, strat):
        assert message_count(split(s, n, strat)) == message_count(s)
