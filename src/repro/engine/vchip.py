"""The DNA chip on the vectorized backend, and the stacked array-scale
evaluator.

The Fig. 4 chip has one host half,
:class:`~repro.chip.dna_chip.DnaMicroarrayChip`: periphery, bias
programming, register writes, calibration, RUN_FRAME framing, host
estimates and the serial readout.
:class:`VectorizedDnaChip` is a single chip that inherits all of it and
holds its pixels as ``(1, rows, cols)`` :class:`PixelArrayParams` planes
instead of per-site converters.  It overrides only the pixel draw
(``"paired"``, so its parameters are bit-identical to an object chip's
on the same generator), the frame count (one :func:`count_chips` call
over the full grid) and the pixel-state reads.  Its counts match the
object chip's in distribution; per site the difference is bounded by
start-phase quantisation (1 count) plus accumulated cycle jitter
(``kernels.count_noise_sigma``).

Batches of chips exist only in the *stacked* evaluation every
array-scale caller shares: :func:`draw_chips` draws chips from their own
chip streams (pixel planes, then the periphery, in constructor order),
:func:`calibrate_chips` and :func:`count_chips` replay each unit's own
(phase, jitter) draws into one kernel call, and
:func:`draw_array_scale` / :func:`calibrate_array_scale` /
:func:`count_array_scale` apply them to an ``ArrayScaleSpec``.  The
Runner's vectorized ``array_scale`` path, the batched campaign executor
and the wafer tiler all run these functions, so a unit's results never
depend on which of them evaluated it or how many other units shared its
kernel call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from ..chip.dna_chip import ChipPeriphery, ChipSpecs, DnaMicroarrayChip, draw_periphery
from ..core.rng import RngLike, ensure_rng, spawn_children
from ..devices.current_mirror import ReferenceCurrentFanout
from . import kernels
from .params import PixelArrayParams

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.specs import ArrayScaleSpec


#: Sites per stacked kernel call.  One call holds ~10 full-precision
#: planes per site (params + draws + counts), so 2^18 sites is ~20 MB
#: resident; larger unit groups are evaluated in chunks.
STACK_SITES = 1 << 18


def stack_chunks(units: list, sites_per_unit: int) -> Iterator[list]:
    """Consecutive runs of ``units`` holding at most :data:`STACK_SITES`
    sites together (at least one unit per run)."""
    size = max(1, STACK_SITES // max(1, sites_per_unit))
    for start in range(0, len(units), size):
        yield units[start : start + size]


def draw_chips(
    specs: ChipSpecs,
    chip_streams: Sequence[RngLike],
    n_chips: int,
    mismatch: str,
    periphery: bool,
) -> tuple[PixelArrayParams, list[ChipPeriphery]]:
    """Draw ``n_chips`` chips per unit from each unit's chip stream and
    stack them along the chip axis, units in order.

    A single chip consumes the stream itself; a batch one spawned child
    per chip.  Each chip draws its pixel planes, then (``periphery``)
    its periphery from the same generator in the object constructor's
    order.  Nothing is drawn from the stream after the periphery, so
    skipping it (an uncalibrated array-scale run never reads it) leaves
    the pixel draws unchanged.
    """
    params: list[PixelArrayParams] = []
    peripheries: list[ChipPeriphery] = []
    for stream in chip_streams:
        generator = ensure_rng(stream)
        for chip_rng in [generator] if n_chips == 1 else spawn_children(generator, n_chips):
            params.append(
                PixelArrayParams.draw(
                    specs.rows,
                    specs.cols,
                    rng=chip_rng,
                    mode=mismatch,
                    counter_bits=specs.counter_bits,
                )
            )
            if periphery:
                peripheries.append(draw_periphery(chip_rng))
    return PixelArrayParams.stack(params), peripheries


def count_chips(
    params: PixelArrayParams,
    currents: np.ndarray,
    frame_s: float,
    streams: Sequence[RngLike],
) -> np.ndarray:
    """Digitise ``currents`` on every stacked chip in one kernel call.

    The chips split evenly into ``len(streams)`` units; each unit draws
    its start phases, then (when the comparators are noisy) its cycle
    jitter, from its own stream — exactly the draws
    ``kernels.count_in_frame(..., rng=stream)`` makes for that unit
    alone.
    """
    shape = params.shape
    per_unit = shape[0] // len(streams)
    block = (per_unit,) + shape[1:]
    noisy = bool(np.any(np.asarray(params.noise_rms_v) > 0))
    phase = np.empty(shape)
    z = np.empty(shape) if noisy else None
    for index, stream in enumerate(streams):
        generator = ensure_rng(stream)
        lo = index * per_unit
        phase[lo : lo + per_unit] = generator.uniform(0.0, 1.0, size=block)
        if z is not None:
            z[lo : lo + per_unit] = generator.normal(0.0, 1.0, size=block)
    return kernels.count_in_frame(
        np.broadcast_to(currents, shape),
        frame_s,
        start_phase=phase,
        jitter_z=z,
        counter_bits=params.counter_bits,
        **params.kernel_kwargs(),
    )


def calibrate_chips(
    params: PixelArrayParams,
    reference_trees: Sequence[ReferenceCurrentFanout],
    frame_s: float,
    streams: Sequence[RngLike],
) -> np.ndarray:
    """On-chip calibration of every stacked chip: each chip's reference
    tree branches, divided 100:1, are laid across its sites in turn,
    digitised (see :func:`count_chips`) and turned into per-pixel gain
    corrections shaped like ``params``."""
    site_index = np.arange(params.sites)
    i_ref = np.empty((params.n_chips, params.sites))
    for chip, tree in enumerate(reference_trees):
        branches = tree.branch_currents() / 100.0
        i_ref[chip] = branches[site_index % len(branches)]
    i_ref = i_ref.reshape(params.shape)
    counts = count_chips(params, i_ref, frame_s, streams)
    return kernels.calibration_corrections(counts, i_ref, frame_s, params.dead_time_s)


def draw_array_scale(
    spec: "ArrayScaleSpec", unit_streams: Sequence[dict]
) -> tuple[PixelArrayParams, list[ChipPeriphery]]:
    """Draw every unit's chips for an ``ArrayScaleSpec``: ``spec.n_chips``
    chips per unit from its ``"chip"`` stream, with the periphery only
    when the spec calibrates."""
    return draw_chips(
        ChipSpecs(rows=spec.rows, cols=spec.cols),
        [streams["chip"] for streams in unit_streams],
        spec.n_chips,
        spec.mismatch,
        periphery=spec.calibrate,
    )


def calibrate_array_scale(
    spec: "ArrayScaleSpec",
    params: PixelArrayParams,
    peripheries: Sequence[ChipPeriphery],
    unit_streams: Sequence[dict],
) -> Optional[np.ndarray]:
    """On-chip calibration of drawn array-scale chips when the spec asks
    (``None`` otherwise), on the ``"calibration"`` streams.

    It raises exactly where a single unit's ``auto_calibrate`` would.
    The workload records raw counts, so the corrections are never
    applied to them.
    """
    if not spec.calibrate:
        return None
    return calibrate_chips(
        params,
        [periphery.reference_tree for periphery in peripheries],
        spec.calibration_frame_s,
        [streams["calibration"] for streams in unit_streams],
    )


def count_array_scale(
    spec: "ArrayScaleSpec", params: PixelArrayParams, unit_streams: Sequence[dict]
) -> tuple[np.ndarray, np.ndarray]:
    """Measure drawn array-scale chips on the ``"measure"`` streams:
    ``(counts, dead)`` with counts shaped like ``params`` and the dead
    pixels summed per chip."""
    counts = count_chips(
        params, spec.site_currents(), spec.frame_s, [streams["measure"] for streams in unit_streams]
    )
    dead = kernels.dead_pixel_mask(params.leakage_a).reshape(params.n_chips, -1).sum(axis=1)
    return counts, dead


class VectorizedDnaChip(DnaMicroarrayChip):
    """One Fig. 4 device whose pixels are ``(1, rows, cols)`` parameter
    planes (``params``), counted as one array kernel per frame.

    Everything else, the recorder hooks included, is the object chip's
    own code.  The per-site views (``adcs``, ``pixels``, ``pixel_at``)
    exist only on the object chip.
    """

    def pixel_at(self, row: int, col: int):
        raise NotImplementedError(
            "per-site pixel views (pixels, pixel_at) exist only on the object "
            'chip (backend="object"); this chip holds its pixels as planes '
            "in chip.params"
        )

    def _draw_pixels(self, generator: np.random.Generator) -> None:
        self.params = PixelArrayParams.draw(
            self.specs.rows,
            self.specs.cols,
            rng=generator,
            mode="paired",
            counter_bits=self.specs.counter_bits,
        )

    def _count_frame(self, currents: Sequence[float], frame_s: float, rng: RngLike) -> np.ndarray:
        """One :func:`count_chips` call over the full grid; the counts
        flat, row-major."""
        grid = np.reshape(np.asarray(currents, dtype=float), self.params.shape)
        return count_chips(self.params, grid, frame_s, [rng]).reshape(-1)

    @property
    def cint_host_nominal_f(self) -> np.ndarray:
        return self.params.cint_host_nominal_f.reshape(-1)

    @property
    def dead_time_s(self) -> float:
        return self.params.dead_time_s

    def inject_dead_pixel(self, row: int, col: int) -> None:
        self._site_index(row, col)
        self.params.leakage_a[0, row, col] = 10e-12

    def dead_pixel_map(self) -> np.ndarray:
        return kernels.dead_pixel_mask(self.params.leakage_a[0])
