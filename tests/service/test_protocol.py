"""PlanRequest / PlanResult protocol tests."""

import pytest

from repro.service.protocol import PlanRequest, PlanResult, ProtocolError


def rmat_request(seed=0, **overrides):
    payload = {
        "generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed},
    }
    payload.update(overrides)
    return PlanRequest.from_dict(payload)


class TestRequestValidation:
    def test_defaults(self):
        req = rmat_request()
        assert req.arch == "spade-sextans"
        assert req.scale == 4

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            PlanRequest.from_dict([1, 2])

    def test_rejects_unknown_field(self):
        # Removed fields (cache_aware, tenant, tier, deadline_s) are
        # rejected like any other, not ignored.
        for field in (
            {"bogus": 1},
            {"cache_aware": False},
            {"tenant": "t0"},
            {"tier": "gold"},
            {"deadline_s": 1.0},
        ):
            with pytest.raises(ProtocolError, match="unknown request field") as excinfo:
                PlanRequest.from_dict({"matrix": "pap", **field})
            assert str(excinfo.value).endswith(next(iter(field)))

    def test_rejects_unknown_arch(self):
        with pytest.raises(ProtocolError, match="unknown arch"):
            PlanRequest.from_dict({"matrix": "pap", "arch": "tpu"})

    def test_rejects_bad_scale(self):
        with pytest.raises(ProtocolError, match="scale"):
            PlanRequest.from_dict({"matrix": "pap", "scale": 0})
        with pytest.raises(ProtocolError, match="scale"):
            PlanRequest.from_dict({"matrix": "pap", "scale": "big"})

    def test_requires_exactly_one_matrix_source(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            PlanRequest.from_dict({})
        with pytest.raises(ProtocolError, match="exactly one"):
            PlanRequest.from_dict(
                {"matrix": "pap", "generator": {"kind": "rmat", "scale": 8, "nnz": 10}}
            )

    def test_rejects_unknown_generator_kind(self):
        with pytest.raises(ProtocolError, match="generator kind"):
            PlanRequest.from_dict({"generator": {"kind": "dense"}})

    def test_rejects_foreign_generator_param(self):
        with pytest.raises(ProtocolError, match="does not take"):
            PlanRequest.from_dict(
                {"generator": {"kind": "rmat", "scale": 8, "nnz": 10, "rows": 5}}
            )

    def test_rejects_non_numeric_generator_param(self):
        with pytest.raises(ProtocolError, match="must be a number"):
            PlanRequest.from_dict(
                {"generator": {"kind": "rmat", "scale": 8, "nnz": "lots"}}
            )

    def test_rejects_bad_timeout(self):
        with pytest.raises(ProtocolError, match="timeout_s"):
            PlanRequest.from_dict({"matrix": "pap", "timeout_s": -1})


    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"matrix": 7}, "matrix must be a benchmark short name"),
            ({"matrix_path": ["m.mtx"]}, "matrix_path must be a string path"),
            ({"generator": ["rmat", 8]}, "generator must be an object"),
            ({"generator": {"scale": 8}}, "unknown generator kind None"),
            ({"generator": {"kind": "rmat", "scale": True}},
             "generator parameter 'scale' must be a number"),
            ({"generator": {"kind": "uniform", "nnz": None}},
             "generator parameter 'nnz' must be a number"),
            ({"matrix": "pap", "scale": True}, "scale must be a positive integer"),
            ({"matrix": "pap", "scale": 2.0}, "scale must be a positive integer"),
            ({"matrix": "pap", "timeout_s": True}, "timeout_s must be a positive number"),
            ({"matrix": "pap", "timeout_s": "5"}, "timeout_s must be a positive number"),
            ({"matrix": "pap", "timeout_s": 0}, "timeout_s must be a positive number"),
            ({"matrix": None, "generator": None}, "exactly one"),
            # Above threading.TIMEOUT_MAX the wait itself would raise.
            ({"matrix": "pap", "timeout_s": float("inf")},
             "timeout_s must be a positive number of seconds, at most"),
            ({"matrix": "pap", "timeout_s": 1e300},
             "timeout_s must be a positive number of seconds, at most"),
        ],
    )
    def test_rejects_mistyped_field(self, payload, message):
        with pytest.raises(ProtocolError) as excinfo:
            PlanRequest.from_dict(payload)
        assert message in str(excinfo.value)


class TestDigest:
    def test_digest_stable_and_distinct(self):
        a1, a2, b = rmat_request(0), rmat_request(0), rmat_request(1)
        assert a1.digest() == a2.digest()
        assert a1.digest() != b.digest()

    def test_digest_covers_strategy_options(self):
        # The digest follows the architecture actually built: PIUMA's
        # factory takes no scale, SPADE-Sextans' does.
        assert rmat_request().digest() != rmat_request(scale=8).digest()
        assert (
            rmat_request(arch="piuma").digest()
            == rmat_request(arch="piuma", scale=1).digest()
        )

    def test_digest_excludes_timeout(self):
        assert rmat_request().digest() == rmat_request(timeout_s=5).digest()

    def test_matrix_path_digest_tracks_content(self, tmp_path):
        from repro.sparse import generators
        from repro.sparse.mmio import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(generators.uniform_random(32, 32, 100, seed=1), path)
        req = PlanRequest.from_dict({"matrix_path": str(path)})
        d1 = req.digest()
        write_matrix_market(generators.uniform_random(32, 32, 100, seed=2), path)
        assert req.digest() != d1

    def test_missing_matrix_path(self, tmp_path):
        req = PlanRequest.from_dict({"matrix_path": str(tmp_path / "nope.mtx")})
        with pytest.raises(ProtocolError, match="matrix_path"):
            req.digest()


class TestResolution:
    def test_generator_resolves(self):
        matrix = rmat_request().resolve_matrix()
        assert matrix.nnz > 0

    def test_benchmark_short_resolves(self):
        matrix = PlanRequest.from_dict({"matrix": "pap"}).resolve_matrix()
        assert matrix.nnz > 0

    def test_unknown_benchmark_short(self):
        with pytest.raises(ProtocolError, match="unknown benchmark"):
            PlanRequest.from_dict({"matrix": "nope"}).resolve_matrix()

    def test_build_architecture(self):
        arch = rmat_request().build_architecture()
        assert arch.hot.count > 0


class TestPlanResult:
    def test_roundtrip(self):
        from repro.pipeline.preprocess import HotTilesPreprocessor

        req = rmat_request()
        matrix = req.resolve_matrix()
        pre = HotTilesPreprocessor(req.build_architecture()).run(matrix)
        result = PlanResult.from_preprocess(req, "ab12", matrix, pre, plan_wall_s=0.1)
        again = PlanResult.from_dict(result.to_dict())
        assert again == result
        assert again.nnz == matrix.nnz
        assert again.mode in ("parallel", "serial")
        # Stored results written while PlanResult had cache_aware still load.
        assert PlanResult.from_dict(dict(result.to_dict(), cache_aware=False)) == result

    def test_from_dict_missing_field(self):
        with pytest.raises(ProtocolError, match="missing field"):
            PlanResult.from_dict({"digest": "ab"})
