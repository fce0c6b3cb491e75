"""Unit tests for the Taxonomy structure and Chain-of-Layer induction."""

import pytest

from repro.core.hierarchy import Taxonomy, chain_of_layer
from repro.embeddings.model import EmbeddingModel
from repro.errors import HierarchyError


class TestTaxonomy:
    def _tree(self):
        t = Taxonomy(root="data")
        t.add("personal data", "data")
        t.add("email", "personal data")
        t.add("email address", "email")
        t.add("technical data", "data")
        return t

    def test_membership(self):
        t = self._tree()
        assert "email" in t
        assert "data" in t
        assert "missing" not in t

    def test_len_counts_root(self):
        assert len(self._tree()) == 5

    def test_parent_child(self):
        t = self._tree()
        assert t.parent("email") == "personal data"
        assert t.children("personal data") == ["email"]

    def test_ancestors_chain(self):
        t = self._tree()
        assert t.ancestors("email address") == ["email", "personal data", "data"]

    def test_descendants(self):
        t = self._tree()
        assert set(t.descendants("personal data")) == {"email", "email address"}

    def test_depth(self):
        t = self._tree()
        assert t.depth("data") == 0
        assert t.depth("email address") == 3
        assert t.max_depth() == 3

    def test_is_ancestor(self):
        t = self._tree()
        assert t.is_ancestor("personal data", "email address")
        assert not t.is_ancestor("technical data", "email")
        assert t.is_ancestor("data", "email")  # root is ancestor of all

    def test_duplicate_add_rejected(self):
        t = self._tree()
        with pytest.raises(HierarchyError):
            t.add("email", "technical data")

    def test_missing_parent_rejected(self):
        t = self._tree()
        with pytest.raises(HierarchyError):
            t.add("new term", "nonexistent parent")

    def test_as_edges(self):
        t = Taxonomy(root="data")
        t.add("personal data", "data")
        assert t.as_edges() == [("data", "personal data")]

    def test_validate_passes_on_good_tree(self):
        self._tree().validate()


class TestChainOfLayer:
    def test_every_term_appears_exactly_once(self, runner):
        terms = [
            "email",
            "email address",
            "phone number",
            "ip address",
            "device model",
            "gps location",
            "watch history",
            "nonsense term xyz",
        ]
        taxonomy = chain_of_layer(runner, terms, "data")
        for term in terms:
            assert term in taxonomy
        assert len(taxonomy.terms) == len(set(taxonomy.terms))

    def test_layering_places_specific_under_general(self, runner):
        taxonomy = chain_of_layer(
            runner, ["location information", "precise location information"], "data"
        )
        assert taxonomy.parent("precise location information") == "location information"

    def test_neutral_suffix_specialization(self, runner):
        taxonomy = chain_of_layer(runner, ["email", "email address"], "data")
        assert taxonomy.parent("email address") == "email"

    def test_seed_categories_created_dynamically(self, runner):
        taxonomy = chain_of_layer(runner, ["email", "ip address"], "data")
        assert taxonomy.parent("email") == "personal data"
        assert taxonomy.parent("personal data") == "data"
        assert taxonomy.parent("ip address") == "technical data"

    def test_unknown_terms_fall_back_to_root(self, runner):
        taxonomy = chain_of_layer(runner, ["flibbertigibbet"], "data")
        assert taxonomy.parent("flibbertigibbet") in ("data",)

    def test_similarity_filter_rejects_weak_links(self, runner):
        # An absurd threshold forces every assignment through the filter,
        # so everything lands on the root.
        taxonomy = chain_of_layer(
            runner,
            ["email", "ip address"],
            "data",
            similarity_model=EmbeddingModel(),
            similarity_threshold=1.1,
        )
        assert taxonomy.parent("email") == "data"
        assert taxonomy.parent("ip address") == "data"

    def test_duplicates_and_root_ignored(self, runner):
        taxonomy = chain_of_layer(runner, ["email", "Email", "data"], "data")
        assert len([t for t in taxonomy.terms if t == "email"]) == 1
