"""Unit tests for segmentation, content hashing, and diffing."""

import hashlib
import json

import pytest

from repro.core.segmenter import Segment, diff_segments, segment_policy
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy


class TestSegmentPolicy:
    def test_sentences_become_segments(self):
        segments = segment_policy("We collect data. We share data.")
        assert len(segments) == 2

    def test_headings_set_section_and_are_dropped(self):
        text = "1. Data Collection\nWe collect your email address."
        segments = segment_policy(text)
        assert len(segments) == 1
        assert segments[0].section == "Data Collection"

    def test_short_fragments_dropped(self):
        segments = segment_policy("Privacy Policy\nWe collect your email address.")
        texts = [s.text for s in segments]
        assert all("Privacy Policy" != t for t in texts)

    def test_exact_duplicates_collapse(self):
        segments = segment_policy("We collect data here. We collect data here.")
        assert len(segments) == 1

    def test_indices_sequential(self):
        segments = segment_policy("We collect data. We share data. We delete data.")
        assert [s.index for s in segments] == [0, 1, 2]

    def test_ids_are_stable_content_hashes(self):
        a = segment_policy("We collect your email.")[0]
        b = segment_policy("Intro text here first.\nWe collect your email.")[-1]
        assert a.segment_id == b.segment_id

    def test_id_whitespace_insensitive(self):
        assert Segment.compute_id("We  collect data") == Segment.compute_id(
            "we collect data"
        )

    def test_id_content_sensitive(self):
        assert Segment.compute_id("We collect email") != Segment.compute_id(
            "We collect location"
        )


class TestDiffSegments:
    def _segs(self, text):
        return segment_policy(text)

    def test_identical_versions_all_unchanged(self):
        old = self._segs("We collect data. We share data.")
        new = self._segs("We collect data. We share data.")
        diff = diff_segments(old, new)
        assert not diff.added and not diff.removed
        assert len(diff.unchanged) == 2
        assert diff.reuse_fraction == 1.0

    def test_added_segment_detected(self):
        old = self._segs("We collect data here.")
        new = self._segs("We collect data here. We share data too.")
        diff = diff_segments(old, new)
        assert len(diff.added) == 1
        assert diff.added[0].text == "We share data too."

    def test_removed_segment_detected(self):
        old = self._segs("We collect data here. We share data too.")
        new = self._segs("We collect data here.")
        diff = diff_segments(old, new)
        assert len(diff.removed) == 1

    def test_modified_segment_is_add_plus_remove(self):
        old = self._segs("We collect your email address.")
        new = self._segs("We collect your email address and phone number.")
        diff = diff_segments(old, new)
        assert len(diff.added) == 1 and len(diff.removed) == 1

    def test_moved_segment_is_unchanged(self):
        old = self._segs("First statement sentence. Second statement sentence.")
        new = self._segs("Second statement sentence. First statement sentence.")
        diff = diff_segments(old, new)
        assert not diff.added and not diff.removed

    def test_reuse_fraction_partial(self):
        old = self._segs("We collect data here.")
        new = self._segs("We collect data here. We share data too.")
        diff = diff_segments(old, new)
        assert diff.reuse_fraction == 0.5

    def test_empty_to_empty(self):
        diff = diff_segments([], [])
        assert diff.reuse_fraction == 1.0


class TestGoldenSegmentations:
    """Segment ids, texts, sections and indices of the bundled policies.

    The digests were taken from the character-by-character splitter; any
    change to how the policies segment moves one of them.
    """

    @pytest.mark.parametrize(
        "make_policy, count, digest",
        [
            (tiktak_policy, 1363, "daf9750864cb27e2"),
            (metabook_policy, 3633, "896afddf306551e3"),
            (meditrack_policy, 909, "13ad3b53822cd4ff"),
        ],
    )
    def test_bundled_policy(self, make_policy, count, digest):
        segments = [
            [s.segment_id, s.text, s.section, s.index]
            for s in segment_policy(make_policy().text)
        ]
        assert len(segments) == count
        encoded = json.dumps(segments).encode("utf-8")
        assert hashlib.sha256(encoded).hexdigest()[:16] == digest
