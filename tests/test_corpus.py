import random

import pytest

from deskmt.corpus import (
    SIDE_MONO_SOURCE,
    SIDE_PARALLEL,
    UNK_TOKEN,
    DataError,
    TaggedDataset,
    build_mix,
    is_tag,
    load_corpus,
    save_corpus,
    strip_tag,
    swap_dataset,
    swap_direction,
)
from deskmt.util import read_text


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCorpus:
    def test_parallel_line_parses_to_token_pair(self, tmp_path):
        path = write(tmp_path, "p.tsv", "a b\tc d\n")
        ds = load_corpus(path, SIDE_PARALLEL)
        assert ds.pairs == ((("a", "b"), ("c", "d")),)

    def test_blank_lines_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, "m.txt", "a b\n\nc\n")
        ds = load_corpus(path, SIDE_MONO_SOURCE)
        assert ds.sentences == (("a", "b"), ("c",))
        assert ds.dropped == 1

    def test_duplicates_preserved(self, tmp_path):
        path = write(tmp_path, "p.tsv", "x\ty\nx\ty\n")
        ds = load_corpus(path, SIDE_PARALLEL)
        assert len(ds.pairs) == 2
        assert ds.pairs[0] == ds.pairs[1]

    def test_missing_separator_is_error(self, tmp_path):
        path = write(tmp_path, "p.tsv", "no separator here\n")
        with pytest.raises(DataError):
            load_corpus(path, SIDE_PARALLEL)

    def test_double_separator_is_error(self, tmp_path):
        path = write(tmp_path, "p.tsv", "a\tb\tc\n")
        with pytest.raises(DataError):
            load_corpus(path, SIDE_PARALLEL)

    def test_empty_side_dropped(self, tmp_path):
        path = write(tmp_path, "p.tsv", "a\t\nb\tc\n")
        ds = load_corpus(path, SIDE_PARALLEL)
        assert len(ds.pairs) == 1
        assert ds.dropped == 1

    def test_unreadable_file(self):
        with pytest.raises(DataError):
            load_corpus("/nonexistent/file.txt", SIDE_PARALLEL)

    def test_non_utf8_is_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe broken")
        with pytest.raises(DataError):
            load_corpus(str(path), SIDE_MONO_SOURCE)

    def test_loading_is_deterministic(self, tmp_path):
        path = write(tmp_path, "p.tsv", "a b\tc d\ne\tf\n")
        assert load_corpus(path, SIDE_PARALLEL) == load_corpus(path, SIDE_PARALLEL)

    def test_round_trip_through_save(self, tmp_path):
        ds = TaggedDataset("x", SIDE_PARALLEL, "<t>",
                           pairs=((("a", "b"), ("c",)), (("d",), ("e", "f"))))
        path = str(tmp_path / "out.tsv")
        text = save_corpus(ds, path)
        assert read_text(path, "corpus file") == text == "a b\tc\nd\te f\n"
        assert load_corpus(path, SIDE_PARALLEL, tag="<t>", name="x") == ds


class TestApplyTag:
    """Tag syntax: `is_tag` and `strip_tag` read it, and no mix or swap
    treats a leading <...> token as anything but a word."""

    def test_strip_tag_inverts(self):
        assert strip_tag(("<t>", "a", "b")) == ("a", "b")
        assert strip_tag(("a", "b")) == ("a", "b")

    def test_unknown_token_is_not_a_tag(self):
        assert not is_tag(UNK_TOKEN)
        assert strip_tag((UNK_TOKEN, "a")) == (UNK_TOKEN, "a")
        assert strip_tag(("<t>", UNK_TOKEN, "a")) == (UNK_TOKEN, "a")
        with pytest.raises(DataError):
            TaggedDataset("d", SIDE_PARALLEL, UNK_TOKEN)

    def test_targets_preserved_exactly(self):
        # a swap moves sentences between sides token for token, so swapping
        # back restores every pair, leading <...> tokens included
        pairs = tuple(((f"<d{i}>", "w", str(i)), ("<t>", "y", str(i))) for i in range(20))
        ds = TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=pairs)
        assert swap_dataset(ds).pairs == tuple((t, s) for s, t in pairs)
        assert swap_dataset(swap_dataset(ds)) == ds

    def test_swap_keeps_leading_unknown_target(self):
        ds = TaggedDataset("d", SIDE_PARALLEL, "<t>",
                           pairs=(((UNK_TOKEN, "a"), ("x",)), (("<t>", "b"), ("y",))))
        assert swap_dataset(ds).pairs == ((("x",), (UNK_TOKEN, "a")), (("y",), ("<t>", "b")))


def replicated(datasets):
    """Every pair of every dataset, `upsample` times, in dataset then line order."""
    return [pair for ds in datasets for _ in range(ds.upsample) for pair in ds.pairs]


class TestBuildMix:
    def test_upsample_replicates(self):
        ds = TaggedDataset("d", SIDE_PARALLEL, "<t>",
                           pairs=tuple((("s", str(i)), ("t",)) for i in range(3)),
                           upsample=3)
        counts = build_mix([ds]).weighted_pairs()
        assert sum(counts.values()) == 9
        assert all(c == 3 for c in counts.values())

    def test_weighted_pairs_is_the_untagged_multiset(self):
        a = TaggedDataset("a", SIDE_PARALLEL, "<a>",
                          pairs=((("x",), ("y",)), (("z",), ("w",))), upsample=2)
        b = TaggedDataset("b", SIDE_PARALLEL, "<b>", pairs=((("z",), ("w",)),))
        weights = build_mix([b, a]).weighted_pairs()
        assert list(weights.items()) == [((("z",), ("w",)), 3), ((("x",), ("y",)), 2)]

    def test_weighted_pairs_equals_a_walk_over_examples(self):
        xy, zw, uv = (("x",), ("y",)), (("z",), ("w",)), (("u", "x"), ("v",))
        a = TaggedDataset("a", SIDE_PARALLEL, "<a>", pairs=(xy, zw, xy, uv), upsample=3)
        b = TaggedDataset("b", SIDE_PARALLEL, "<b>", pairs=(zw, (("<a>", "z"), ("w",))))
        c = TaggedDataset("c", SIDE_PARALLEL, "<c>", pairs=(uv, (("q",), ("y",)), xy),
                          upsample=2)
        for datasets in ([a, b, c], [c, b, a], [b, a]):
            walked: dict = {}
            for pair in replicated(datasets):
                walked[pair] = walked.get(pair, 0) + 1
            got = build_mix(datasets).weighted_pairs()
            assert got == walked
            assert list(got) == list(walked)

    def test_sizes_add(self):
        a = TaggedDataset("a", SIDE_PARALLEL, "<a>",
                          pairs=tuple((("x", str(i)), ("y",)) for i in range(2)))
        b = TaggedDataset("b", SIDE_PARALLEL, "<b>",
                          pairs=((("z",), ("w",)),), upsample=4)
        assert sum(build_mix([a, b]).weighted_pairs().values()) == 6

    def test_sources_enter_the_mix_as_they_are(self):
        a = TaggedDataset("a", SIDE_PARALLEL, "<a>", pairs=((("x",), ("y",)),))
        b = TaggedDataset("b", SIDE_PARALLEL, "<b>",
                          pairs=((("<b>", "z"), ("w",)),), upsample=2)
        mix = build_mix([a, b])
        assert mix.datasets == (a, b)
        assert list(mix.weighted_pairs()) == [(("x",), ("y",)), (("<b>", "z"), ("w",))]

    def test_zero_parallel_is_error(self):
        mono = TaggedDataset("m", SIDE_MONO_SOURCE, "<t>", sentences=(("a",),))
        with pytest.raises(DataError):
            build_mix([mono])

    def test_size_law_random(self):
        rng = random.Random(13)
        for _ in range(50):
            datasets = []
            expected = 0
            for d in range(rng.randint(1, 4)):
                n = rng.randint(1, 6)
                up = rng.randint(1, 5)
                pairs = tuple(((f"s{d}", str(i)), (f"t{d}",)) for i in range(n))
                datasets.append(TaggedDataset(f"d{d}", SIDE_PARALLEL, f"<d{d}>",
                                              pairs=pairs, upsample=up))
                expected += n * up
            assert sum(build_mix(datasets).weighted_pairs().values()) == expected


class TestSwapDirection:
    def test_swap_and_retag(self):
        ds = TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=((("a",), ("b",)),))
        swapped = swap_direction(build_mix([ds]))
        assert [d.tag for d in swapped.datasets] == ["<t>"]
        assert swapped.weighted_pairs() == {(("b",), ("a",)): 1}

    def test_involution(self):
        ds = TaggedDataset("d", SIDE_PARALLEL, "<t>",
                           pairs=((("a", "c"), ("b",)), (("d",), ("e", "f"))),
                           upsample=2)
        mix = build_mix([ds])
        assert swap_direction(swap_direction(mix)) == mix

    def test_empty_target_propagates_invariant_error(self):
        with pytest.raises(DataError):
            TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=((("a",), ()),))


class TestDatasetValidation:
    def test_bad_tag_rejected(self):
        with pytest.raises(DataError):
            TaggedDataset("d", SIDE_PARALLEL, "plain", pairs=())

    def test_zero_upsample_rejected(self):
        with pytest.raises(DataError):
            TaggedDataset("d", SIDE_PARALLEL, "<t>", pairs=(), upsample=0)

    def test_unknown_side_rejected(self):
        with pytest.raises(DataError):
            TaggedDataset("d", "sideways", "<t>")
