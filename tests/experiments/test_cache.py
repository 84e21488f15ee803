"""Content-addressed cache tests: digests, the on-disk store, pickling."""

import dataclasses
import enum
import pickle

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans
from repro.core.traits import WorkerKind
from repro.experiments.cache import (
    ResultCache,
    code_version,
    default_cache_dir,
    stable_digest,
)
from repro.sim.engine import simulate_homogeneous
from repro.sparse import generators
from repro.sparse.tiling import TiledMatrix
from tests.core.test_partition import mixed_tiled, tiny_arch


class Color(enum.Enum):
    RED = 1
    BLUE = 2


class TestStableDigest:
    def test_primitives_distinct(self):
        values = [None, True, False, 0, 1, 0.0, 1.5, "a", b"a", "1"]
        digests = [stable_digest(v) for v in values]
        assert len(set(digests)) == len(values)

    def test_int_float_distinct(self):
        assert stable_digest(1) != stable_digest(1.0)

    def test_repeatable(self):
        arch = spade_sextans(4)
        assert stable_digest(arch) == stable_digest(arch)

    def test_equal_configs_share_digest(self):
        assert stable_digest(spade_sextans(4)) == stable_digest(spade_sextans(4))

    def test_different_configs_differ(self):
        assert stable_digest(spade_sextans(4)) != stable_digest(spade_sextans(2))
        assert stable_digest(spade_sextans(4)) != stable_digest(piuma())

    def test_bandwidth_tweak_changes_digest(self):
        arch = spade_sextans(4)
        tweaked = dataclasses.replace(arch, mem_bw_gbs=arch.mem_bw_gbs * 1.0000001)
        assert stable_digest(arch) != stable_digest(tweaked)

    def test_cross_process_stability(self):
        """The digest must not depend on the per-process hash seed."""
        import os
        import subprocess
        import sys

        code = (
            "from repro.experiments.cache import stable_digest;"
            "from repro.arch.configs import spade_sextans;"
            "print(stable_digest(spade_sextans(4)))"
        )
        outs = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            outs.add(proc.stdout.strip())
        assert outs == {stable_digest(spade_sextans(4))}

    def test_enum_by_name(self):
        assert stable_digest(Color.RED) != stable_digest(Color.BLUE)

    def test_set_order_independent(self):
        assert stable_digest(frozenset({Color.RED, Color.BLUE})) == stable_digest(
            frozenset({Color.BLUE, Color.RED})
        )

    def test_numpy_arrays(self):
        a = np.arange(6, dtype=np.int64)
        assert stable_digest(a) == stable_digest(a.copy())
        assert stable_digest(a) != stable_digest(a.astype(np.int32))
        assert stable_digest(a) != stable_digest(a.reshape(2, 3))

    def test_dict_sorted_by_key(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            stable_digest({1: "a"})

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError, match="cannot canonically encode"):
            stable_digest(object())

    def test_matrix_via_content_digest(self):
        m1 = generators.rmat(scale=8, nnz=500, seed=7)
        m2 = generators.rmat(scale=8, nnz=500, seed=7)
        m3 = generators.rmat(scale=8, nnz=500, seed=8)
        assert stable_digest(m1) == stable_digest(m2)
        assert stable_digest(m1) != stable_digest(m3)


class TestContentDigests:
    def test_sparse_matrix_digest_memoized(self):
        m = generators.rmat(scale=8, nnz=500, seed=7)
        assert m.content_digest() is m.content_digest()

    def test_tiled_matrix_digest_covers_geometry(self):
        m = generators.rmat(scale=8, nnz=500, seed=7)
        assert (
            TiledMatrix(m, 4, 4).content_digest()
            != TiledMatrix(m, 8, 8).content_digest()
        )
        assert (
            TiledMatrix(m, 4, 4).content_digest()
            == TiledMatrix(m, 4, 4).content_digest()
        )

    def test_pickle_round_trips(self):
        """Architecture / TiledMatrix / SimResult survive the pool boundary."""
        arch = tiny_arch()
        tiled = mixed_tiled()
        sim = simulate_homogeneous(arch, tiled, WorkerKind.COLD)
        arch2 = pickle.loads(pickle.dumps(arch))
        assert arch2 == arch
        assert stable_digest(arch2) == stable_digest(arch)
        tiled2 = pickle.loads(pickle.dumps(tiled))
        assert tiled2.content_digest() == tiled.content_digest()
        sim2 = pickle.loads(pickle.dumps(sim))
        assert sim2.time_s == sim.time_s
        assert stable_digest(sim2) == stable_digest(sim)

    def test_unpickled_matrix_stays_immutable(self):
        m = pickle.loads(pickle.dumps(generators.rmat(scale=8, nnz=500, seed=7)))
        with pytest.raises(ValueError):
            m.rows[0] = 3


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()

    def test_short_hex(self):
        v = code_version()
        assert len(v) == 16
        int(v, 16)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_digest("entry")
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(stable_digest("k"), [1, 2, 3])
        assert ResultCache(tmp_path).get(stable_digest("k")) == [1, 2, 3]

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(stable_digest(i), i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_digest("corrupt")
        cache.put(key, "value")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        with pytest.raises(NotADirectoryError, match="not a directory"):
            ResultCache(not_a_dir)

    def test_bad_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="hex"):
            cache.get("../escape")
        with pytest.raises(ValueError, match="hex"):
            cache.put("", 1)

    def test_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_digest("present")
        assert key not in cache
        cache.put(key, 1)
        assert key in cache

    def test_reset_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get(stable_digest("missing"))
        cache.reset_counters()
        assert cache.hits == 0 and cache.misses == 0

    def test_suite_default_dir_is_session_temp(self, tmp_path_factory):
        # The suite must not write to the user's ~/.cache/hottiles.
        basetemp = tmp_path_factory.getbasetemp().resolve()
        assert basetemp in default_cache_dir().resolve().parents


class TestCacheMaintenance:
    """Byte-size cap, oldest-first eviction, and lifetime counters."""

    @staticmethod
    def _fill(cache, n, payload_bytes=1000, start=0):
        import os as _os
        keys = []
        for i in range(start, start + n):
            key = stable_digest(("evict", i))
            cache.put(key, b"x" * payload_bytes)
            # Make write order unambiguous for mtime-based eviction.
            path = cache._path(key)
            _os.utime(path, (i, i))
            keys.append(key)
        return keys

    def test_total_bytes_and_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        listing = cache.entries()
        assert len(listing) == 3
        assert cache.total_bytes() == sum(size for _, size, _ in listing)
        assert cache.total_bytes() > 3000

    def test_evict_to_removes_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 4)
        per_entry = cache.total_bytes() // 4
        evicted = cache.evict_to(2 * per_entry)
        assert evicted == 2
        assert keys[0] not in cache and keys[1] not in cache
        assert keys[2] in cache and keys[3] in cache

    def test_put_enforces_cap(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=0)
        key = stable_digest("capped")
        cache.put(key, "value")
        # A zero-byte cap evicts immediately: the store never grows.
        assert len(cache) == 0

    def test_cap_keeps_newest(self, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        self._fill(probe, 1)
        per_entry = probe.total_bytes()
        cache = ResultCache(tmp_path / "real", max_bytes=2 * per_entry)
        keys = self._fill(cache, 5)
        assert len(cache) <= 2
        assert keys[-1] in cache

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=-1)

    def test_flush_and_persisted_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_digest("counted")
        cache.get(key)  # miss
        cache.put(key, 1)
        cache.get(key)  # hit
        cache.flush_counters()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.persisted_counters() == {"hits": 1, "misses": 1}
        # A second process's flush merge-adds.
        other = ResultCache(tmp_path)
        other.get(key)
        other.flush_counters()
        assert cache.persisted_counters() == {"hits": 2, "misses": 1}

    def test_flush_without_activity_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.flush_counters()
        assert not (tmp_path / ResultCache.COUNTERS_FILE).exists()

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10_000)
        key = stable_digest("statted")
        cache.get(key)
        cache.put(key, "v")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["max_bytes"] == 10_000
        assert stats["session_misses"] == 1
        assert stats["lifetime_misses"] == 1

    def test_corrupt_counters_file_is_zero(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ResultCache.COUNTERS_FILE).write_text("{broken")
        assert cache.persisted_counters() == {"hits": 0, "misses": 0}
