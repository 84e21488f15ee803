"""The plan-service request/response vocabulary.

A :class:`PlanRequest` names everything one preprocessing run is
parameterized by: the matrix (a benchmark short name, a MatrixMarket file
path, or a deterministic generator spec) and the target architecture.
Its :meth:`~PlanRequest.digest` is a content address built from
:func:`~repro.experiments.cache.stable_digest` over exactly those inputs
plus the package code version -- two requests share a digest iff they
describe the same plan computed by the same code, which is what
in-flight coalescing and the plan store key on.

A :class:`PlanResult` is the JSON-serializable summary of one completed
plan: the chosen heuristic, the hot/cold split, predicted runtime, the
per-stage preprocessing cost, and the paths of the persisted ``.npz``
artifacts.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "ProtocolError",
    "PlanRequest",
    "PlanResult",
    "GENERATOR_KINDS",
    "is_wait_bound",
]


class ProtocolError(ValueError):
    """A malformed or unsatisfiable plan request."""


def is_wait_bound(value: Any) -> bool:
    """True for a usable wait bound: a number in ``(0, threading.TIMEOUT_MAX]``.

    A plan request waits with ``threading.Event.wait``, which raises
    ``OverflowError`` for a bound above ``threading.TIMEOUT_MAX`` (``inf``
    included).  NaN fails the comparison and is rejected too.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= threading.TIMEOUT_MAX
    )


#: Deterministic synthetic-matrix generators requests may name, with the
#: parameters each accepts (all plain ints/floats; seeds default to 0).
GENERATOR_KINDS: Dict[str, Tuple[str, ...]] = {
    "rmat": ("scale", "nnz", "a", "b", "c", "seed"),
    "uniform": ("n_rows", "n_cols", "nnz", "seed"),
    "banded": ("n", "nnz", "bandwidth", "scatter_fraction", "seed"),
    "community": ("n", "nnz", "n_communities", "intra_fraction", "seed"),
}

_REQUEST_KEYS = {
    "matrix", "matrix_path", "generator", "arch", "scale", "timeout_s",
}


@dataclass(frozen=True)
class PlanRequest:
    """One partition-planning request.

    Exactly one of ``matrix`` (benchmark short name), ``matrix_path``
    (MatrixMarket file), or ``generator`` (kind + parameters from
    :data:`GENERATOR_KINDS`) selects the matrix.
    """

    arch: str = "spade-sextans"
    scale: int = 4
    matrix: Optional[str] = None
    matrix_path: Optional[str] = None
    generator: Optional[Dict[str, Any]] = None
    timeout_s: Optional[float] = None  #: per-request wait bound (None = server default)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanRequest":
        """Validate and build a request from a decoded JSON object."""
        if not isinstance(payload, Mapping):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(payload) - _REQUEST_KEYS
        if unknown:
            raise ProtocolError(f"unknown request field(s): {', '.join(sorted(unknown))}")
        request = cls(
            arch=payload.get("arch", "spade-sextans"),
            scale=payload.get("scale", 4),
            matrix=payload.get("matrix"),
            matrix_path=payload.get("matrix_path"),
            generator=payload.get("generator"),
            timeout_s=payload.get("timeout_s"),
        )
        request.validate()
        return request

    def validate(self) -> None:
        """Raise :class:`ProtocolError` unless this request is well-formed."""
        from repro.arch.configs import ARCHITECTURE_FACTORIES

        if self.arch not in ARCHITECTURE_FACTORIES:
            raise ProtocolError(
                f"unknown arch {self.arch!r} (known: "
                f"{', '.join(sorted(ARCHITECTURE_FACTORIES))})"
            )
        if not isinstance(self.scale, int) or isinstance(self.scale, bool) or self.scale < 1:
            raise ProtocolError(f"scale must be a positive integer, got {self.scale!r}")
        if self.timeout_s is not None and not is_wait_bound(self.timeout_s):
            raise ProtocolError(
                "timeout_s must be a positive number of seconds, at most "
                f"{threading.TIMEOUT_MAX:g}"
            )
        specs = [
            s for s in (self.matrix, self.matrix_path, self.generator) if s is not None
        ]
        if len(specs) != 1:
            raise ProtocolError(
                "exactly one of matrix / matrix_path / generator must be given"
            )
        if self.matrix is not None and not isinstance(self.matrix, str):
            raise ProtocolError("matrix must be a benchmark short name (string)")
        if self.matrix_path is not None and not isinstance(self.matrix_path, str):
            raise ProtocolError("matrix_path must be a string path")
        if self.generator is not None:
            self._validate_generator(self.generator)

    @staticmethod
    def _validate_generator(spec: Mapping[str, Any]) -> None:
        if not isinstance(spec, Mapping):
            raise ProtocolError("generator must be an object with a 'kind' field")
        kind = spec.get("kind")
        if kind not in GENERATOR_KINDS:
            raise ProtocolError(
                f"unknown generator kind {kind!r} (known: "
                f"{', '.join(sorted(GENERATOR_KINDS))})"
            )
        allowed = GENERATOR_KINDS[kind]
        for name, value in spec.items():
            if name == "kind":
                continue
            if name not in allowed:
                raise ProtocolError(
                    f"generator {kind!r} does not take {name!r} "
                    f"(takes: {', '.join(allowed)})"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError(f"generator parameter {name!r} must be a number")

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """The content address of this plan.

        Built from :func:`stable_digest` over the code version, the
        architecture (its name and factory arguments, so PIUMA's ignored
        ``scale`` does not split it), and the matrix *content* token: the
        short name or generator spec for deterministic sources, and a
        SHA-256 of the file bytes for ``matrix_path`` (so editing the file
        changes the digest even if the path does not).  ``timeout_s`` is
        deliberately excluded -- it shapes the wait, not the plan.
        """
        from repro.arch.configs import factory_args
        from repro.experiments.cache import code_version, stable_digest

        if self.matrix is not None:
            matrix_token: Any = ("short", self.matrix)
        elif self.generator is not None:
            matrix_token = ("generator", dict(self.generator))
        else:
            path = Path(self.matrix_path)  # type: ignore[arg-type]
            try:
                content = path.read_bytes()
            except OSError as exc:
                raise ProtocolError(f"cannot read matrix_path: {exc}") from None
            matrix_token = ("file", hashlib.sha256(content).hexdigest())
        return stable_digest(
            (
                "plan-request",
                code_version(),
                self.arch,
                factory_args(self.arch, self.scale),
                matrix_token,
            )
        )

    def resolve_matrix(self):
        """Materialize the requested :class:`~repro.sparse.matrix.SparseMatrix`."""
        from repro.sparse import generators

        if self.matrix is not None:
            from repro.experiments.matrices import ALL_MATRICES, load_matrix

            if self.matrix not in ALL_MATRICES:
                raise ProtocolError(
                    f"unknown benchmark matrix {self.matrix!r} "
                    f"(known: {', '.join(sorted(ALL_MATRICES))})"
                )
            return load_matrix(self.matrix)
        if self.matrix_path is not None:
            from repro.sparse.mmio import read_matrix_market

            try:
                return read_matrix_market(self.matrix_path)
            except (OSError, ValueError) as exc:  # ValueError: not MatrixMarket
                raise ProtocolError(f"cannot read matrix_path: {exc}") from None
        spec = dict(self.generator)  # type: ignore[arg-type]
        kind = spec.pop("kind")
        factory = {
            "rmat": generators.rmat,
            "uniform": generators.uniform_random,
            "banded": generators.banded,
            "community": generators.community_blocks,
        }[kind]
        int_params = {"scale", "nnz", "n", "n_rows", "n_cols", "bandwidth",
                      "n_communities", "seed"}
        kwargs = {
            k: int(v) if k in int_params else float(v) for k, v in spec.items()
        }
        try:
            return factory(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"generator {kind!r} rejected parameters: {exc}") from None

    def build_architecture(self):
        """Instantiate the requested :class:`~repro.arch.heterogeneous.Architecture`."""
        from repro.arch.configs import build_architecture

        return build_architecture(self.arch, self.scale)

    def describe(self) -> str:
        if self.matrix is not None:
            src = self.matrix
        elif self.matrix_path is not None:
            src = Path(self.matrix_path).name
        else:
            src = f"{self.generator.get('kind', '?')}(...)"  # type: ignore[union-attr]
        return f"{src} on {self.arch}x{self.scale}"

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        return {k: v for k, v in out.items() if v is not None}


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanResult:
    """The JSON-serializable record of one completed plan."""

    digest: str
    arch: str
    scale: int
    n_rows: int
    n_cols: int
    nnz: int
    label: str  #: chosen heuristic label
    mode: str  #: 'parallel' or 'serial'
    n_tiles: int
    hot_tiles: int
    hot_nnz_fraction: float
    predicted_time_s: float
    scan_s: float
    partition_s: float
    format_generation_s: float
    plan_wall_s: float  #: end-to-end planning wall-clock (resolve + pipeline + persist)
    artifacts: Tuple[str, ...] = field(default_factory=tuple)
    created_unix: float = 0.0
    naive_time_s: float = 0.0  #: Fig. 8 closed-form prediction (audit trail)
    scorer: str = "naive"  #: which model selected the plan: 'contention' | 'naive'

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["artifacts"] = list(self.artifacts)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanResult":
        import dataclasses

        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in payload:
                kwargs[f.name] = payload[f.name]
            elif (
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ):
                raise ProtocolError(f"plan result missing field {f.name!r}")
        if "artifacts" in kwargs:
            kwargs["artifacts"] = tuple(kwargs["artifacts"])
        return cls(**kwargs)

    @classmethod
    def from_preprocess(
        cls,
        request: PlanRequest,
        digest: str,
        matrix,
        preprocess,
        plan_wall_s: float,
        artifacts: Tuple[str, ...] = (),
    ) -> "PlanResult":
        """Summarize a :class:`~repro.pipeline.preprocess.PreprocessResult`."""
        chosen = preprocess.partition.chosen
        cost = preprocess.cost
        return cls(
            digest=digest,
            arch=request.arch,
            scale=request.scale,
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
            nnz=matrix.nnz,
            label=chosen.label,
            mode=chosen.mode.value,
            n_tiles=preprocess.tiled.n_tiles,
            hot_tiles=chosen.hot_tile_count,
            hot_nnz_fraction=chosen.hot_nnz_fraction(preprocess.tiled),
            predicted_time_s=chosen.predicted_time_s,
            naive_time_s=(
                chosen.naive_time_s
                if chosen.naive_time_s is not None
                else chosen.predicted_time_s
            ),
            scorer=chosen.scorer,
            scan_s=cost.scan_s,
            partition_s=cost.partition_s,
            format_generation_s=cost.format_generation_s,
            plan_wall_s=plan_wall_s,
            artifacts=artifacts,
            created_unix=time.time(),
        )
