"""Tests for session ids and the registry."""

import random

import pytest

from repro.lsl.core.errors import SessionUnknown
from repro.lsl.core.session import SessionRegistry, new_session_id


def test_session_id_is_16_bytes_and_seeded():
    rng = random.Random(1)
    sid = new_session_id(rng)
    assert len(sid) == 16
    assert new_session_id(random.Random(1)) == sid
    assert new_session_id(rng) != sid


def test_registry_create_lookup():
    reg = SessionRegistry()
    rec = reg.create(b"\x01" * 16, now=1.5)
    assert reg.lookup(b"\x01" * 16) is rec
    assert rec.created_at == 1.5
    assert len(reg) == 1
    assert b"\x01" * 16 in reg


def test_registry_duplicate_create_rejected():
    reg = SessionRegistry()
    reg.create(b"\x01" * 16, now=0)
    with pytest.raises(ValueError):
        reg.create(b"\x01" * 16, now=1)


def test_registry_unknown_lookup_raises():
    reg = SessionRegistry()
    with pytest.raises(SessionUnknown):
        reg.lookup(b"\x02" * 16)


def test_closed_session_not_lookupable():
    reg = SessionRegistry()
    reg.create(b"\x01" * 16, now=0)
    reg.close(b"\x01" * 16)
    with pytest.raises(SessionUnknown):
        reg.lookup(b"\x01" * 16)
    assert reg.live_count == 0
    assert len(reg) == 1  # record retained until forget()


def test_forget_removes_record():
    reg = SessionRegistry()
    reg.create(b"\x01" * 16, now=0)
    reg.forget(b"\x01" * 16)
    assert len(reg) == 0
    reg.forget(b"\x01" * 16)  # idempotent


def test_get_returns_none_for_unknown():
    assert SessionRegistry().get(b"\x03" * 16) is None
