"""End-to-end path construction from witness data.

Stages: sphere cover, dominant cone selection, shell parity vote,
anchor selection, skeleton, mollification.  A stage that rejects its
input raises InputError and any other stage failure PipelineError, both
naming the stage.  One extra anchor is built below the requested K_max
so every requested anchor time lies strictly inside the evaluation
domain.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .errors import InputError, PipelineError
from .geometry import (
    DEFAULT_COVER_HALF_ANGLE,
    ConeSpec,
    SphereCover,
    build_sphere_cover,
    require_cover_fits,
    select_dominant_cone,
    select_parity,
)
from .mollifier import SmoothPath, build_smooth_path
from .skeleton import (
    AnchorSequence,
    WitnessSequence,
    build_anchor_sequence,
    build_skeleton,
)

MIN_MATCHED = 2
DEFAULT_K_MAX = 40
# a check of a 5-D path at this K peaked at 0.46 GB, of a 2-D one at 0.28 GB
# (2-vCPU VM); the coincidence check's grid grows with K and holds 2.6 M rows
MAX_K_MAX = 10_000


@dataclass(frozen=True, eq=False)
class PathBuild:
    """A built path with the settings that produced it.

    ``witness_scale`` is the factor the raw witness points were multiplied
    by, kept so that a loaded path saved again keeps it.
    """

    half_angle: float
    seed: int
    cover_size: int
    anchors: AnchorSequence
    path: SmoothPath
    witness_scale: float = 1.0

    @property
    def k_max(self) -> int:
        """The requested K; one more anchor is built below it."""
        return len(self.anchors.a) - 1

    @property
    def cone(self) -> ConeSpec:
        return self.anchors.cone

    @property
    def parity(self) -> str:
        return self.anchors.parity


def check_k_max(k_max: int) -> None:
    """Reject a K outside 2..MAX_K_MAX, before any work sized by it."""
    if not 2 <= k_max <= MAX_K_MAX:
        raise InputError(f"k_max must lie in 2..{MAX_K_MAX}, got {k_max!r}")


def check_cover(dimension: int, half_angle: float) -> None:
    """Raise, before any work sized by ``dimension``, the InputError the
    cover stage would raise for a witness of that dimension."""
    with _stage("cover"):
        require_cover_fits(dimension, half_angle)


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except InputError as exc:
        raise InputError(f"stage '{name}': {exc}") from exc
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def build_path(
    witness: WitnessSequence,
    k_max: int = DEFAULT_K_MAX,
    half_angle: float = DEFAULT_COVER_HALF_ANGLE,
    seed: int = 0,
) -> PathBuild:
    """Construct the smooth path for a witness sequence."""
    check_k_max(k_max)
    with _stage("cover"):
        cover: SphereCover = build_sphere_cover(
            witness.dimension, half_angle, seed=seed
        )
    with _stage("cone"):
        cone, captured = select_dominant_cone(witness.x, cover)
    with _stage("parity"):
        parity, _ = select_parity(witness.x[captured])
    with _stage("anchors"):
        anchors = build_anchor_sequence(witness, cone, parity, k_max + 1)
        if len(anchors.matched) < MIN_MATCHED:
            raise PipelineError(
                "anchors",
                f"only {len(anchors.matched)} witness points matched an anchor "
                f"shell inside the cone; at least {MIN_MATCHED} are needed",
            )
    with _stage("skeleton"):
        skeleton = build_skeleton(anchors)
    with _stage("mollify"):
        path = build_smooth_path(anchors, skeleton=skeleton)
    return PathBuild(
        half_angle=float(half_angle),
        seed=int(seed),
        cover_size=cover.size,
        anchors=anchors,
        path=path,
        witness_scale=witness.scale,
    )
