import pytest

from repro.core.delegation import Delegation, issue
from repro.core.errors import ParseError
from repro.core.roles import Role
from repro.core.tags import (
    DiscoveryTag,
    ObjectFlag,
    SubjectFlag,
    searchable_forward,
    searchable_reverse,
)


class TestFlags:
    def test_subject_flag_semantics(self):
        assert not SubjectFlag.NONE.stores_at_home
        assert SubjectFlag.STORE.stores_at_home
        assert SubjectFlag.SEARCH.stores_at_home
        assert SubjectFlag.SEARCH.searchable
        assert not SubjectFlag.STORE.searchable

    def test_object_flag_semantics(self):
        assert not ObjectFlag.NONE.stores_at_home
        assert ObjectFlag.STORE.stores_at_home
        assert ObjectFlag.SEARCH.searchable


class TestParsing:
    def test_paper_example(self):
        tag = DiscoveryTag.parse(
            "<wallet.bigISP.com:bigISP.wallet:30:So>")
        assert tag.home == "wallet.bigISP.com"
        assert tag.auth_role_name == "bigISP.wallet"
        assert tag.ttl == 30.0
        assert tag.subject_flag is SubjectFlag.SEARCH
        assert tag.object_flag is ObjectFlag.STORE

    def test_round_trip(self):
        tag = DiscoveryTag.parse("<w.example.com:a.b:15:sO>")
        assert DiscoveryTag.parse(str(tag)) == tag

    def test_dict_round_trip(self):
        tag = DiscoveryTag.parse("<w.example.com:a.b:15:sO>")
        assert DiscoveryTag.from_dict(tag.to_dict()) == tag

    @pytest.mark.parametrize("field,value", [
        ("home", 5), ("home", b"w.example.com"), ("auth_role", 7),
        ("auth_role", ["a.b"])])
    def test_a_name_that_is_no_str_is_refused(self, field, value):
        """The origin routes by a tag's home and checks its role by
        name: a map carrying anything else there is no tag, not one
        whose check raises later, mid-discovery."""
        record = dict(DiscoveryTag.parse("<w.example.com:a.b:15:sO>")
                      .to_dict(), **{field: value})
        with pytest.raises(ParseError):
            DiscoveryTag.from_dict(record)

    def test_int_ttl_survives_a_delegation_round_trip(self, org, alice):
        """The wire decodes every TTL as a float; a tag built with an
        int must sign as that float, or the decoded delegation has
        another id and its signature no longer verifies."""
        tag = DiscoveryTag(home="w.example.com", ttl=30,
                           object_flag=ObjectFlag.SEARCH)
        assert tag.ttl.__class__ is float
        d = issue(org, alice.entity, Role(org.entity, "r"), object_tag=tag)
        back = Delegation.from_dict(d.to_dict())
        assert back.id == d.id
        assert back.verify_signature()

    def test_no_flags(self):
        tag = DiscoveryTag.parse("<w.example.com::0:-->")
        assert not tag.requires_monitoring
        assert tag.subject_flag is SubjectFlag.NONE
        assert tag.object_flag is ObjectFlag.NONE

    @pytest.mark.parametrize("bad", [
        "<w:a:30>",            # missing flags field
        "<w:a:thirty:So>",     # non-numeric TTL
        "<w:a:30:S>",          # one-character flags
        "<w:a:30:xo>",         # bad subject flag
        "<w:a:30:Sx>",         # bad object flag
        "<:a:30:So>",          # empty home
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            DiscoveryTag.parse(bad)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ParseError):
            DiscoveryTag(home="w", ttl=-1)


class TestMonitoring:
    def test_zero_ttl_means_no_monitoring(self):
        assert not DiscoveryTag(home="w", ttl=0).requires_monitoring
        assert DiscoveryTag(home="w", ttl=5).requires_monitoring


class TestSearchHelpers:
    def test_forward(self):
        tag = DiscoveryTag(home="w", subject_flag=SubjectFlag.SEARCH)
        assert searchable_forward(tag)
        assert not searchable_forward(None)
        assert not searchable_forward(
            DiscoveryTag(home="w", subject_flag=SubjectFlag.STORE))

    def test_reverse(self):
        tag = DiscoveryTag(home="w", object_flag=ObjectFlag.SEARCH)
        assert searchable_reverse(tag)
        assert not searchable_reverse(None)
