"""Figure 7 (extension) — finite-length-aware generation sizing.

The paper fixes the generation size at n = 40 blocks and treats coding
as asymptotically reliable.  At finite n over GF(2^8) neither half of
that bargain is free: every decoded generation costs a little over n
received packets (the full-rank overhead), each coded packet carries an
n-byte coefficient header, and lossy links turn "a little over n" into
a binomial tail that grows with n.  The finite-length model in
:mod:`repro.coding.finite_length` prices those effects in closed form;
this experiment checks the model against the emulator and shows what
acting on it buys:

* **Panel A — decode cost.**  Monte-Carlo runs of the coding layer
  alone (encoder -> i.i.d. lossy channel -> progressive decoder)
  measure ``decoder.rows_eliminated`` and ``decoder.overhead_packets``
  for dense vs. systematic encoding, next to the model's expected
  overhead curves over the candidate generation sizes.  On a lossless
  channel systematic encoding owes no elimination work, so
  the measured elimination count collapses (the acceptance bar is a
  >= 5x reduction) while payloads stay byte-identical.

* **Panel B — goodput under loss.**  The Sec. 3.2 diamond S -> {u, v}
  -> T with every link at delivery probability 1 - loss runs a fixed
  airtime window per loss rate, under three coding arms: the paper's
  static n = 40, per-loss adaptive n (the model's
  :func:`~repro.coding.finite_length.optimal_blocks`), and systematic
  n = 40.  Goodput is decoded payload over the whole window, so a
  generation that never reaches full rank counts as zero — exactly the
  finite-length failure mode the adaptive arm avoids at high loss.

Every cell of both panels is one cacheable job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import SourceEncoder
from repro.coding.finite_length import (
    DEFAULT_CANDIDATES,
    expected_decode_packets,
    optimal_blocks,
    overhead_ratio,
)
from repro.coding.generation import GenerationParams, random_generation
from repro.emulator.plan import CodingParams
from repro.emulator.session import SessionConfig, SessionResult, run_coded_session
from repro.exec import ExecutionPolicy, execute_calls
from repro.protocols.omnc import plan_omnc
from repro.topology.graph import WirelessNetwork
from repro.topology.random_network import diamond_topology
from repro.util.rng import RngFactory

#: The coding arms of panel B, in presentation order.
ARMS = ("static", "adaptive", "systematic")


@dataclass(frozen=True)
class Fig7Config:
    """Knobs of the finite-length experiment.

    ``smoke()`` returns a reduced configuration for CI: same shape,
    a fraction of the emulated time and Monte-Carlo trials.
    """

    static_blocks: int = 40
    block_size: int = 1024
    losses: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    window_seconds: float = 120.0
    decode_trials: int = 50
    decode_blocks: int = 40
    seed: int = 2008
    candidates: Tuple[int, ...] = DEFAULT_CANDIDATES

    @classmethod
    def smoke(cls) -> "Fig7Config":
        """CI-sized run: short window, few trials, sparse loss sweep."""
        return cls(
            block_size=256,
            losses=(0.0, 0.3),
            window_seconds=30.0,
            decode_trials=10,
            decode_blocks=16,
        )


@dataclass(frozen=True)
class DecodeCostPoint:
    """Panel A: measured decode cost of one (loss, encoding) cell.

    Attributes:
        loss: i.i.d. packet-loss probability of the channel.
        systematic: whether the source encoded systematically.
        eliminations_per_generation: mean rows owed elimination work
            per decoded generation (measured
            ``decoder.rows_eliminated``).
        overhead_per_generation: mean non-innovative packets absorbed
            per decoded generation (measured ``decoder.overhead_packets``).
        payloads_identical: every trial's decoded matrix matched the
            source generation byte for byte.
    """

    loss: float
    systematic: bool
    eliminations_per_generation: float
    overhead_per_generation: float
    payloads_identical: bool


@dataclass(frozen=True)
class GoodputPoint:
    """Panel B: one coding arm's outcome at one loss rate.

    Attributes:
        loss: per-link loss probability on the diamond.
        arm: "static" | "adaptive" | "systematic".
        blocks: the generation size the arm ran with.
        systematic: whether the arm encoded systematically.
        goodput_bps: decoded payload over the whole airtime window (B/s).
        generations_decoded: full generations recovered in the window.
    """

    loss: float
    arm: str
    blocks: int
    systematic: bool
    goodput_bps: float
    generations_decoded: int


@dataclass(frozen=True)
class Fig7Result:
    """Both panels of the finite-length experiment.

    Attributes:
        config: the experiment configuration.
        model_overhead: ``overhead_ratio(n, loss)`` per loss rate over
            the candidate generation sizes (the model curves of panel A).
        decode_costs: measured decode-cost cells, keyed (loss, systematic).
        goodput: measured goodput cells, keyed (loss, arm).
    """

    config: Fig7Config
    model_overhead: Dict[float, Tuple[Tuple[int, float], ...]]
    decode_costs: Dict[Tuple[float, bool], DecodeCostPoint]
    goodput: Dict[Tuple[float, str], GoodputPoint]

    def elimination_reduction(self, loss: float = 0.0) -> float:
        """How many times fewer rows systematic eliminates at ``loss``.

        Systematic measures exactly zero on a lossless channel; the
        denominator is floored at one row so the ratio reads as a
        conservative "at least this many times fewer".
        """
        dense = self.decode_costs[(loss, False)].eliminations_per_generation
        systematic = self.decode_costs[(loss, True)].eliminations_per_generation
        return dense / max(systematic, 1.0)


def arm_coding(arm: str, loss: float, config: Fig7Config) -> CodingParams:
    """The coding decision each arm rides into the session plan."""
    if arm == "static":
        return CodingParams(blocks=config.static_blocks)
    if arm == "adaptive":
        blocks = optimal_blocks(
            loss,
            block_size=config.block_size,
            candidates=config.candidates,
        )
        return CodingParams(blocks=blocks)
    if arm == "systematic":
        return CodingParams(blocks=config.static_blocks, systematic=True)
    raise ValueError(f"unknown arm {arm!r}")


@dataclass(frozen=True)
class Fig7DecodeJob:
    """One Monte-Carlo decode-cost measurement, as a cacheable job."""

    config: Fig7Config
    loss: float
    systematic: bool


def execute_fig7_decode_job(job: Fig7DecodeJob) -> DecodeCostPoint:
    """Measure decode cost at the coding layer: encoder -> loss -> decoder.

    Every (loss, systematic) cell uses the same seed, so dense and
    systematic face identical source payloads and channel erasures —
    the measured elimination gap is the encoding's alone.
    """
    config = job.config
    params = GenerationParams(
        blocks=config.decode_blocks, block_size=config.block_size
    )
    rng = RngFactory(config.seed)
    source_rng = rng.derive("fig7-source")
    channel_rng = rng.derive("fig7-channel")
    eliminations = 0.0
    overhead = 0.0
    identical = True
    for trial in range(config.decode_trials):
        generation = random_generation(trial, params, source_rng)
        encoder = SourceEncoder(
            1,
            generation,
            rng.derive("fig7-coding", trial),
            systematic=job.systematic,
        )
        with obs.collecting() as registry:
            decoder = ProgressiveDecoder(params.blocks, params.block_size)
            while not decoder.is_complete:
                packet = encoder.next_packet()
                if channel_rng.random() < job.loss:
                    continue
                decoder.add_packet(packet)
        if not np.array_equal(decoder.decode(), generation.matrix):
            identical = False
        eliminations += registry.value("decoder.rows_eliminated")
        overhead += registry.histogram("decoder.overhead_packets").sum
    trials = float(config.decode_trials)
    return DecodeCostPoint(
        loss=job.loss,
        systematic=job.systematic,
        eliminations_per_generation=eliminations / trials,
        overhead_per_generation=overhead / trials,
        payloads_identical=identical,
    )


@dataclass(frozen=True)
class Fig7GoodputJob:
    """One coding arm's fixed-window run on the diamond, as a job."""

    config: Fig7Config
    loss: float
    arm: str


def fig7_network(loss: float) -> WirelessNetwork:
    """The panel-B topology: the Sec. 3.2 diamond at uniform link loss."""
    p = 1.0 - loss
    return diamond_topology(p_su=p, p_sv=p, p_ut=p, p_vt=p)


def execute_fig7_goodput_job(job: Fig7GoodputJob) -> GoodputPoint:
    """Run one coding arm for the full airtime window on the diamond."""
    config = job.config
    network = fig7_network(job.loss)
    coding = arm_coding(job.arm, job.loss, config)
    plan = replace(plan_omnc(network, 0, 3), coding=coding)
    session_config = SessionConfig(
        block_size=config.block_size,
        max_seconds=config.window_seconds,
        target_generations=0,
        coding_fidelity="exact",
    )
    result: SessionResult = run_coded_session(
        network,
        plan,
        config=session_config,
        rng=RngFactory(config.seed),
    )
    duration = result.duration if result.duration > 0 else 1.0
    goodput = result.packets_delivered * config.block_size / duration
    return GoodputPoint(
        loss=job.loss,
        arm=job.arm,
        blocks=coding.blocks,
        systematic=coding.systematic,
        goodput_bps=goodput,
        generations_decoded=result.generations_decoded,
    )


def run_fig7(
    config: Optional[Fig7Config] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> Fig7Result:
    """Run both panels; every cell is an independent cacheable job."""
    config = config or Fig7Config()
    decode_jobs = [
        Fig7DecodeJob(config=config, loss=loss, systematic=systematic)
        for loss in config.losses
        for systematic in (False, True)
    ]
    goodput_jobs = [
        Fig7GoodputJob(config=config, loss=loss, arm=arm)
        for loss in config.losses
        for arm in ARMS
    ]
    values = execute_calls(
        [(execute_fig7_decode_job, job) for job in decode_jobs]
        + [(execute_fig7_goodput_job, job) for job in goodput_jobs],
        policy,
    )
    decode_costs = {
        (job.loss, job.systematic): value
        for job, value in zip(decode_jobs, values)
    }
    goodput = {
        (job.loss, job.arm): value
        for job, value in zip(goodput_jobs, values[len(decode_jobs) :])
    }
    model_overhead = {
        loss: tuple(
            (n, overhead_ratio(n, loss, block_size=config.block_size))
            for n in config.candidates
        )
        for loss in config.losses
    }
    return Fig7Result(
        config=config,
        model_overhead=model_overhead,
        decode_costs=decode_costs,
        goodput=goodput,
    )


def report(result: Fig7Result) -> None:
    """Print both panels of the finite-length comparison."""
    config = result.config
    print("Figure 7 — finite-length-aware generation sizing")
    print(
        f"panel A: n={config.decode_blocks}, m={config.block_size} B, "
        f"{config.decode_trials} generations per cell "
        f"(model E[packets] = {expected_decode_packets(config.decode_blocks):.3f})"
    )
    header = (
        f"{'loss':>5s} {'enc':>10s} {'elim/gen':>9s} {'ovh/gen':>8s} "
        f"{'payload':>8s}"
    )
    print(header)
    for loss in config.losses:
        for systematic in (False, True):
            point = result.decode_costs[(loss, systematic)]
            print(
                f"{loss:5.2f} {'systematic' if systematic else 'dense':>10s} "
                f"{point.eliminations_per_generation:9.1f} "
                f"{point.overhead_per_generation:8.2f} "
                f"{'ok' if point.payloads_identical else 'MISMATCH':>8s}"
            )
    print(
        f"systematic elimination reduction at zero loss: "
        f"{result.elimination_reduction(0.0):.1f}x"
    )
    print()
    print(
        f"panel B: diamond, {config.window_seconds:.0f} s window per cell, "
        f"goodput = decoded payload / window"
    )
    print(f"{'loss':>5s}" + "".join(f" {arm:>16s}" for arm in ARMS))
    for loss in config.losses:
        cells = []
        for arm in ARMS:
            point = result.goodput[(loss, arm)]
            cells.append(f"{point.goodput_bps:9.0f} (n={point.blocks:3d})")
        print(f"{loss:5.2f}" + "".join(f" {cell:>16s}" for cell in cells))
    print()
    print("model overhead ratio (per-block wire bytes / payload - 1):")
    print(f"{'loss':>5s}" + "".join(f" {f'n={n}':>8s}" for n in config.candidates))
    for loss in config.losses:
        row = "".join(
            f" {ratio:8.3f}" if ratio != float("inf") else f" {'inf':>8s}"
            for _n, ratio in result.model_overhead[loss]
        )
        print(f"{loss:5.2f}" + row)
