"""Deterministic random-stream derivation."""

import numpy as np

from repro.rng import derive_key, generator_for


def test_same_key_same_stream():
    a = generator_for(1234, "sa-offset", 0, 17).standard_normal(16)
    b = generator_for(1234, "sa-offset", 0, 17).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_different_coords_different_streams():
    a = generator_for(1234, "sa-offset", 0, 17).standard_normal(16)
    b = generator_for(1234, "sa-offset", 0, 18).standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_domains_different_streams():
    a = generator_for(1234, "sa-offset", 0).standard_normal(16)
    b = generator_for(1234, "thermal", 0).standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_seeds_different_streams():
    a = generator_for(1, "x").standard_normal(16)
    b = generator_for(2, "x").standard_normal(16)
    assert not np.array_equal(a, b)


def test_derive_key_is_stable():
    # The key derivation must never change across releases: stored
    # characterizations depend on it.
    key = derive_key(0, "probe", 1, 2)
    assert key == derive_key(0, "probe", 1, 2)
    assert len(key) == 8
    assert all(0 <= word < 2 ** 32 for word in key)


def test_derive_key_no_delimiter_collision():
    # ("ab", 1) and ("a", "b1")-style collisions must not happen because
    # coordinates are joined with a delimiter.
    assert derive_key(0, "d", 12, 3) != derive_key(0, "d", 1, 23)


def test_order_independence():
    # Drawing site B before site A yields the same values for both.
    b_first = generator_for(9, "site", 2).standard_normal(4)
    a_first = generator_for(9, "site", 1).standard_normal(4)
    assert np.array_equal(
        generator_for(9, "site", 2).standard_normal(4), b_first)
    assert np.array_equal(
        generator_for(9, "site", 1).standard_normal(4), a_first)


def test_derive_key_pinned_words():
    # Exact words of a few keys: every substrate and thermal stream is
    # seeded from them, so any change to the digest split re-rolls all
    # silicon and every served stream.
    assert derive_key(0, "probe", 1, 2) == (
        3087121993, 1766685849, 1080750424, 963327800,
        2930558229, 2356867137, 2647128382, 1815048563)
    assert derive_key(2021, "module", 13) == (
        1946466218, 3608295978, 1174314645, 3964541105,
        1657420470, 64443256, 1394562445, 319405744)
    assert derive_key(1, "quac-thermal", 3, 0, 0, 5) == (
        2537647478, 2688413326, 1668176776, 672277286,
        1363188051, 1317094080, 1708509404, 1374985758)
    assert derive_key(123456789012, "column-rough", 0, 1, 63) == (
        878475541, 253139123, 3492979475, 315038395,
        3864531026, 213325714, 580926968, 3638171705)
