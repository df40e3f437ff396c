"""End-to-end path construction from witness data.

Stages: sphere cover, dominant cone selection, shell parity vote,
anchor selection, skeleton, mollification.  Any stage failure raises
PipelineError naming the stage.  One extra anchor is built below the
requested K_max so every requested anchor time lies strictly inside
the evaluation domain.
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


@dataclass(frozen=True, eq=False)
class PathBuild:
    """A built path with everything that produced it."""

    witness: WitnessSequence | None
    k_max: int
    half_angle: float
    seed: int
    cover_size: int
    anchors: AnchorSequence
    path: SmoothPath

    @property
    def cone(self) -> ConeSpec:
        return self.anchors.cone

    @property
    def parity(self) -> str:
        return self.anchors.parity


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def build_path(
    witness: WitnessSequence,
    k_max: int = 40,
    half_angle: float = DEFAULT_COVER_HALF_ANGLE,
    seed: int = 0,
) -> PathBuild:
    """Construct the smooth path for a witness sequence."""
    if k_max < 2:
        raise InputError("k_max must be >= 2")
    with _stage("cover"):
        cover: SphereCover = build_sphere_cover(
            witness.dimension, half_angle, seed=seed
        )
    points = witness.points()
    with _stage("cone"):
        cone, captured = select_dominant_cone(points, cover)
    with _stage("parity"):
        parity, _ = select_parity([points[i] for i in captured])
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
        witness=witness,
        k_max=k_max,
        half_angle=float(half_angle),
        seed=int(seed),
        cover_size=cover.size,
        anchors=anchors,
        path=path,
    )
