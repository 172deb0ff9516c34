"""Tests for the AVC-style audit ring."""

import copy

import pytest

from repro.obs import (AUDIT_AVC, AUDIT_STATE_TRANSITION, AuditEvent,
                       AuditRing, errno_name)


def emit_denial(ring, seqless_path="/dev/car/door", situation="emergency"):
    return ring.emit(1_000_000, AUDIT_AVC, module="sack",
                     hook="file_ioctl", path=seqless_path, pid=7,
                     comm="media_app", uid=1001, situation=situation,
                     errno=13)


class TestErrnoName:
    def test_known(self):
        assert errno_name(13) == "EACCES"
        assert errno_name(-13) == "EACCES"

    def test_unknown(self):
        assert errno_name(9999) == "9999"


class TestEmission:
    def test_sequence_numbers_monotonic(self):
        ring = AuditRing()
        a = emit_denial(ring)
        b = emit_denial(ring)
        assert b.seq == a.seq + 1

    def test_disabled_ring_drops(self):
        ring = AuditRing(enabled=False)
        assert emit_denial(ring) is None
        assert len(ring) == 0

    def test_ring_bounded_oldest_drop_first(self):
        ring = AuditRing(capacity=3)
        for i in range(5):
            ring.emit(i, AUDIT_AVC, path=f"/p{i}")
        assert [r.path for r in ring.records()] == ["/p2", "/p3", "/p4"]
        assert ring.emitted == 5

    def test_deep_copy_shares_records_not_the_ring(self):
        ring = AuditRing()
        record = emit_denial(ring)
        clone = copy.deepcopy(ring)
        assert clone.records()[0] is record
        emit_denial(clone)
        assert len(clone) == 2 and len(ring) == 1
        assert clone.records()[1].seq == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AuditRing(capacity=0)


class TestFilters:
    def test_emit_time_filter_keeps_matches_only(self):
        ring = AuditRing()
        ring.add_filter(comm="media_app")
        kept = emit_denial(ring)
        dropped = ring.emit(0, AUDIT_AVC, comm="nav_app")
        assert kept is not None and dropped is None
        assert ring.suppressed == 1
        assert [r.comm for r in ring.records()] == ["media_app"]

    def test_multiple_filters_or_semantics(self):
        ring = AuditRing()
        ring.add_filter(comm="a")
        ring.add_filter(comm="b")
        ring.emit(0, AUDIT_AVC, comm="a")
        ring.emit(0, AUDIT_AVC, comm="b")
        ring.emit(0, AUDIT_AVC, comm="c")
        assert len(ring) == 2

    def test_empty_filter_rejected(self):
        with pytest.raises(ValueError):
            AuditRing().add_filter()

    def test_misspelt_filter_field_rejected(self):
        # A field no record has would match nothing: the whole trail
        # would be suppressed without a word.
        ring = AuditRing()
        with pytest.raises(ValueError, match="'comn'"):
            ring.add_filter(comn="media_app")
        assert emit_denial(ring) is not None
        assert ring.suppressed == 0 and len(ring) == 1

    def test_filter_on_every_record_field_accepted(self):
        ring = AuditRing()
        ring.add_filter(**{field: None for field in AuditEvent._fields})
        assert emit_denial(ring) is None and ring.suppressed == 1

    def test_clear_filters(self):
        ring = AuditRing()
        ring.add_filter(comm="nobody")
        ring.clear_filters()
        assert emit_denial(ring) is not None


class TestQueries:
    def test_query_matches_all_criteria(self):
        ring = AuditRing()
        emit_denial(ring)
        ring.emit(0, AUDIT_STATE_TRANSITION, module="sack",
                  situation="emergency")
        assert len(ring.query(kind=AUDIT_AVC, situation="emergency")) == 1
        assert len(ring.query(situation="emergency")) == 2
        assert ring.query(comm="nope") == []

    def test_query_on_unknown_field_rejected(self):
        ring = AuditRing()
        emit_denial(ring)
        with pytest.raises(ValueError, match="'situaton'"):
            ring.query(situaton="emergency")

    def test_by_kind_and_tail(self):
        ring = AuditRing()
        emit_denial(ring)
        emit_denial(ring)
        assert len(ring.by_kind(AUDIT_AVC)) == 2
        assert len(ring.tail(1)) == 1
        assert ring.tail(0) == []


class TestRendering:
    def test_avc_line_carries_situation_and_module(self):
        ring = AuditRing()
        record = emit_denial(ring)
        line = record.to_text()
        assert "avc: denied { file_ioctl }" in line
        assert 'comm="media_app"' in line
        assert "module=sack" in line
        assert "situation=emergency" in line
        assert "errno=EACCES" in line

    def test_missing_situation_renders_none(self):
        ring = AuditRing()
        record = emit_denial(ring, situation="")
        assert "situation=none" in record.to_text()

    def test_to_text_empty_ring(self):
        assert AuditRing().to_text() == ""
