"""Tests for the TE policy store."""

import pytest

from repro.selinux.context import parse_context
from repro.selinux.policy import (AvRule, FileContext, SelinuxPolicy,
                                  SelinuxPolicyError, TypeTransition)


@pytest.fixture
def policy():
    p = SelinuxPolicy()
    for t in ("media_t", "door_t", "audio_t", "media_exec_t"):
        p.declare_type(t)
    return p


class TestAvRules:
    def test_allow_and_query(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read", "ioctl"})))
        assert policy.allows("media_t", "audio_t", "chr_file", "read")
        assert policy.allows("media_t", "audio_t", "chr_file", "ioctl")
        assert not policy.allows("media_t", "audio_t", "chr_file", "write")
        assert not policy.allows("media_t", "door_t", "chr_file", "read")

    def test_default_deny(self, policy):
        assert not policy.allows("media_t", "door_t", "chr_file", "read")

    def test_rules_accumulate(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"})))
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"write"})))
        assert policy.allowed_perms("media_t", "audio_t", "chr_file") == \
            {"read", "write"}

    def test_undeclared_type_rejected(self, policy):
        with pytest.raises(SelinuxPolicyError):
            policy.add_rule(AvRule("ghost_t", "audio_t", "chr_file",
                                   frozenset({"read"})))

    def test_unknown_class_rejected(self):
        with pytest.raises(SelinuxPolicyError):
            AvRule("a", "b", "warp_drive", frozenset({"engage"}))

    def test_invalid_perm_for_class_rejected(self):
        with pytest.raises(SelinuxPolicyError):
            AvRule("a", "b", "file", frozenset({"teleport"}))

    def test_revision_bumps(self, policy):
        before = policy.revision
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"})))
        assert policy.revision > before


class TestNeverallow:
    def test_neverallow_blocks_later_allow(self, policy):
        policy.add_neverallow(AvRule("media_t", "door_t", "chr_file",
                                     frozenset({"write"})))
        with pytest.raises(SelinuxPolicyError):
            policy.add_rule(AvRule("media_t", "door_t", "chr_file",
                                   frozenset({"write"})))

    def test_neverallow_conflict_with_existing(self, policy):
        policy.add_rule(AvRule("media_t", "door_t", "chr_file",
                               frozenset({"write"})))
        with pytest.raises(SelinuxPolicyError):
            policy.add_neverallow(AvRule("media_t", "door_t", "chr_file",
                                         frozenset({"write"})))

    def test_disjoint_perms_fine(self, policy):
        policy.add_neverallow(AvRule("media_t", "door_t", "chr_file",
                                     frozenset({"write"})))
        policy.add_rule(AvRule("media_t", "door_t", "chr_file",
                               frozenset({"read"})))


class TestOriginRetraction:
    def test_remove_by_origin(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"})))
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"write"}), origin="sack"))
        policy.replace_origin("sack", [])
        assert policy.allows("media_t", "audio_t", "chr_file", "read")
        assert not policy.allows("media_t", "audio_t", "chr_file", "write")

    def test_shared_perm_survives_if_another_origin_grants(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"})))
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"}), origin="sack"))
        policy.replace_origin("sack", [])
        assert policy.allows("media_t", "audio_t", "chr_file", "read")

    def test_remove_absent_origin_is_noop(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"})))
        table = {key: set(perms) for key, perms in policy._av.items()}
        policy.replace_origin("ghost", [])
        assert policy._av == table

    def test_replace_swaps_one_origin_in_one_revision(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"})))
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"write"}), origin="sack"))
        revision = policy.revision
        policy.replace_origin("sack", [
            AvRule("media_t", "audio_t", "chr_file", frozenset({"ioctl"}),
                   origin="sack"),
            AvRule("media_t", "audio_t", "file", frozenset({"read"}),
                   origin="sack")])
        assert policy.revision == revision + 1
        assert policy.allowed_perms("media_t", "audio_t", "chr_file") == \
            {"read", "ioctl"}
        assert policy.allowed_perms("media_t", "audio_t", "file") == \
            {"read"}

    def test_refused_rule_leaves_the_table(self, policy):
        policy.add_neverallow(AvRule("media_t", "audio_t", "chr_file",
                                     frozenset({"write"})))
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read"}), origin="sack"))
        table = {key: set(perms) for key, perms in policy._av.items()}
        revision = policy.revision
        for refused in (AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"write"}), origin="sack"),
                        AvRule("media_t", "ghost_t", "chr_file",
                               frozenset({"read"}), origin="sack")):
            with pytest.raises(SelinuxPolicyError):
                policy.replace_origin("sack", [
                    AvRule("media_t", "audio_t", "file",
                           frozenset({"read"}), origin="sack"), refused])
            assert policy._av == table
            assert policy.revision == revision


class TestTransitions:
    def test_transition_lookup(self, policy):
        policy.add_transition(TypeTransition("init_t", "media_exec_t",
                                             "media_t"))
        assert policy.transition_for("init_t", "media_exec_t") == "media_t"
        assert policy.transition_for("init_t", "other_t") is None

    def test_conflicting_transition_rejected(self, policy):
        policy.add_transition(TypeTransition("init_t", "media_exec_t",
                                             "media_t"))
        with pytest.raises(SelinuxPolicyError):
            policy.add_transition(TypeTransition("init_t", "media_exec_t",
                                                 "door_t"))


class TestFileContexts:
    def test_most_specific_wins(self, policy):
        policy.add_file_context(FileContext(
            "/dev/**", parse_context("system_u:object_r:device_t")))
        policy.add_file_context(FileContext(
            "/dev/car/door", parse_context("system_u:object_r:door_t")))
        assert policy.context_for_path("/dev/car/door").type == "door_t"
        assert policy.context_for_path("/dev/null").type == "device_t"

    def test_unmatched_path_gets_default(self, policy):
        assert policy.context_for_path("/random").type == "file_t"

    def test_rule_count(self, policy):
        policy.add_rule(AvRule("media_t", "audio_t", "chr_file",
                               frozenset({"read", "write"})))
        assert policy.rule_count() == 2
