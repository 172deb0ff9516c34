"""Tests for the live AppArmor policy store."""

import pytest

from repro.apparmor.policydb import PolicyDb
from repro.apparmor.profile import FilePerm, PathRule, Profile


@pytest.fixture
def db():
    return PolicyDb()


class TestLoading:
    def test_load_and_get(self, db):
        db.load_profile(Profile("p", attachment="/usr/bin/p"))
        assert db.get("p").name == "p"
        assert db.get("missing") is None

    def test_revision_bumps(self, db):
        rev = db.revision
        db.load_profile(Profile("p"))
        assert db.revision == rev + 1

    def test_load_text(self, db):
        db.load_text("profile a /bin/a {\n  /etc/x r,\n}")
        assert db.get("a") is not None

    def test_replace_existing(self, db):
        db.load_profile(Profile("p"))
        replacement = Profile("p", path_rules=[PathRule("/x", FilePerm.READ)])
        db.replace_profile(replacement)
        assert db.get("p").rule_count() == 1
        assert db.replace_count == 1

    def test_replace_missing_raises(self, db):
        with pytest.raises(KeyError):
            db.replace_profile(Profile("ghost"))

    def test_remove(self, db):
        db.load_profile(Profile("p"))
        db.remove_profile("p")
        assert db.get("p") is None

    def test_total_rules(self, db):
        db.load_profile(Profile("a", path_rules=[
            PathRule("/x", FilePerm.READ)]))
        db.load_profile(Profile("b", capabilities={"chown"}))
        assert db.total_rules() == 2


class TestAttachment:
    def test_exact_attachment(self, db):
        db.load_profile(Profile("app", attachment="/usr/bin/app"))
        assert db.attach_for_exe("/usr/bin/app").name == "app"
        assert db.attach_for_exe("/usr/bin/other") is None

    def test_glob_attachment(self, db):
        db.load_profile(Profile("anybin", attachment="/usr/bin/*"))
        assert db.attach_for_exe("/usr/bin/thing").name == "anybin"

    def test_most_specific_wins(self, db):
        db.load_profile(Profile("broad", attachment="/usr/**"))
        db.load_profile(Profile("narrow", attachment="/usr/bin/app"))
        assert db.attach_for_exe("/usr/bin/app").name == "narrow"
        assert db.attach_for_exe("/usr/lib/lib.so").name == "broad"

    def test_profile_without_attachment_never_attaches(self, db):
        db.load_profile(Profile("hat"))
        assert db.attach_for_exe("/usr/bin/hat") is None

    def test_cache_invalidated_on_policy_change(self, db):
        db.load_profile(Profile("a", attachment="/usr/bin/app"))
        assert db.attach_for_exe("/usr/bin/app").name == "a"
        db.load_profile(Profile("b", attachment="/usr/bin/*"))
        db.remove_profile("a")
        assert db.attach_for_exe("/usr/bin/app").name == "b"

    def test_cache_returns_fresh_object_after_replace(self, db):
        db.load_profile(Profile("a", attachment="/usr/bin/app"))
        db.attach_for_exe("/usr/bin/app")
        updated = Profile("a", attachment="/usr/bin/app",
                          path_rules=[PathRule("/new", FilePerm.READ)])
        db.replace_profile(updated)
        assert db.attach_for_exe("/usr/bin/app").rule_count() == 1


class TestReplaceProfiles:
    @pytest.fixture
    def watched(self, db):
        notes = []
        db.load_profile(Profile("a"))
        db.load_profile(Profile("b"))
        db.subscribe(lambda: notes.append(db.revision))
        return db, notes

    def test_one_revision_and_one_notify_for_many(self, watched):
        db, notes = watched
        rev = db.revision
        db.replace_profiles([
            Profile("a", path_rules=[PathRule("/a", FilePerm.READ)]),
            Profile("b", path_rules=[PathRule("/b", FilePerm.READ)])])
        assert db.revision == rev + 1
        assert notes == [rev + 1]
        assert db.replace_count == 2
        assert db.get("a").rule_count() == db.get("b").rule_count() == 1

    def test_unknown_name_changes_nothing(self, watched):
        db, notes = watched
        rev, a = db.revision, db.get("a")
        with pytest.raises(KeyError):
            db.replace_profiles([
                Profile("a", path_rules=[PathRule("/a", FilePerm.READ)]),
                Profile("ghost")])
        assert db.revision == rev
        assert notes == []
        assert db.get("a") is a
        assert db.get("ghost") is None
        assert db.replace_count == 0

    def test_empty_swap_is_a_no_op(self, watched):
        db, notes = watched
        rev = db.revision
        db.replace_profiles([])
        assert db.revision == rev and notes == []

    def test_load_text_is_one_swap(self, watched):
        db, notes = watched
        rev = db.revision
        loaded = db.load_text("profile a /bin/a {\n  /etc/x r,\n}\n"
                              "profile c /bin/c {\n  /etc/y r,\n}\n")
        assert [p.name for p in loaded] == ["a", "c"]
        assert db.revision == rev + 1
        assert notes == [rev + 1]
        assert db.replace_count == 1          # "a" replaced, "c" added


class TestSharedTextCache:
    TEXT = "profile a /bin/a {\n  /etc/x r,\n}\n"

    def test_text_is_parsed_once_per_cache(self, monkeypatch):
        from repro.apparmor import policydb as policydb_mod
        from repro.lsm.policycache import PolicyCache
        calls = []
        original = policydb_mod.parse_profiles
        monkeypatch.setattr(policydb_mod, "parse_profiles",
                            lambda text: calls.append(text)
                            or original(text))
        cache = PolicyCache()
        first, second = PolicyDb(cache), PolicyDb(cache)
        first.load_text(self.TEXT)
        second.load_text(self.TEXT)
        assert len(calls) == 1
        PolicyDb().load_text(self.TEXT)       # a private cache parses
        assert len(calls) == 2

    def test_loaded_profiles_are_private_copies(self):
        from repro.lsm.policycache import PolicyCache
        cache = PolicyCache()
        first, second = PolicyDb(cache), PolicyDb(cache)
        (mine,) = first.load_text(self.TEXT)
        mine.add_rule(PathRule("/secret", FilePerm.WRITE))
        (theirs,) = second.load_text(self.TEXT)
        assert theirs is not mine
        assert not theirs.allows_file("/secret", FilePerm.WRITE)
        assert first.get("a").allows_file("/secret", FilePerm.WRITE)

    def test_bad_text_is_not_cached(self):
        from repro.apparmor.parser import AppArmorParseError
        from repro.lsm.policycache import PolicyCache
        cache = PolicyCache()
        bad = "profile a /bin/a {\n  /x zz,\n}"
        for _ in range(2):
            db = PolicyDb(cache)
            with pytest.raises(AppArmorParseError):
                db.load_text(bad)
            assert len(db) == 0 and db.revision == 0
