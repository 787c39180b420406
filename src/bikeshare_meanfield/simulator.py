"""Exact event-driven simulation of the N-station bike sharing Markov chain.

The microscopic ground truth: N stations with integer bike counts, walking
customers with a remaining-walk budget, and riding bikes that bounce
persistently off full stations.  Event competition is exponential per event
class (outside arrivals at rate N*lambda, walk completions at rate
gamma * #walkers, ride completions at rate mu * #riding) with uniform
thinning to pick the individual, which is statistically exact for the
continuous-time chain.  Trajectory sampling draws no randomness, so
enabling it never perturbs the event sequence.

Seed contract: ``SeedSequence(seed).spawn(4)`` gives four PCG64 streams
(event timing, arrival routing, walk moves, ride moves).  At start-up each
stream draws a block of ``_BLOCK`` uniforms and then a block of ``_BLOCK``
standard exponentials; only the timing stream reads its exponentials, the
other three discard theirs.  A stream draws its next block only when a draw
needs it: the timing stream, read once per event, refills both kinds together,
exponentials first, as soon as its block is spent, and walk and ride
completions read their two uniforms as a pair inside one even-sized block.
Arrival uniforms become stations once per block, as ``int(u * N)`` bit for
bit (the same IEEE product truncated toward zero; ``u <= 1 - 2**-53`` keeps
it below N).  Reports are therefore bit-for-bit
reproducible, and bit-identical to earlier releases for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import SystemParams, _as_float, _as_seed, _capacity_error, _write_json
from .dynamics import OdeConfig, Trajectory, _all_at_c, integrate
from .errors import ConfigError, EmptyMeasurementError, InvariantViolationError

#: draws per refill; must stay even, so that the two uniforms of a walk or
#: ride completion never straddle a block end, and must divide 2**16, since
#: the deep check runs at the timing refill after every 2**16-th event
_BLOCK = 1 << 14
_DEEP_CHECK_MASK = (1 << 16) - 1


class Walker(NamedTuple):
    """A customer walking between stations, with the walks they have left."""

    station: int
    walks_remaining: int


@dataclass(frozen=True)
class SimConfig:
    """One simulation run description.

    params           model constants (n_stations, capacities, rates)
    seed             64-bit seed; identical configs give identical reports
    t_warmup         time discarded before measurement starts (>= 0)
    t_measure        length of the measurement window (> 0); the three
                     times must be finite numbers
    sample_interval  spacing of empirical-measure snapshots from t = 0;
                     None disables trajectory recording
    """

    params: SystemParams
    seed: int
    t_measure: float
    t_warmup: float = 0.0
    sample_interval: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_seed(self.seed))
        optional = () if self.sample_interval is None else ("sample_interval",)
        for name in ("t_measure", "t_warmup") + optional:
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not self.t_measure > 0:
            raise ConfigError(f"t_measure must be positive, got {self.t_measure}")
        if self.t_warmup < 0:
            raise ConfigError(f"t_warmup must be nonnegative, got {self.t_warmup}")
        if self.sample_interval is not None and not self.sample_interval > 0:
            raise ConfigError(f"sample_interval must be positive, got {self.sample_interval}")

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        params = SystemParams.from_dict(data)
        if "seed" not in data or "t_measure" not in data:
            raise ConfigError("simulation config needs keys 'seed' and 't_measure'")
        return cls(params=params, seed=data["seed"], t_measure=data["t_measure"],
                   t_warmup=data.get("t_warmup", 0.0), sample_interval=data.get("sample_interval"))


@dataclass(frozen=True)
class SimState:
    """Full microscopic state at one instant."""

    station_bikes: list[int]
    walkers: list[Walker]
    riding: int
    clock: float

    def validate(self, params: SystemParams) -> None:
        """Check conservation, capacity and walker-budget invariants."""
        if len(self.station_bikes) != params.n_stations:
            raise InvariantViolationError("station count changed")
        if any(k < 0 or k > params.capacity_k for k in self.station_bikes):
            raise InvariantViolationError("station bike count out of [0, K]")
        total = sum(self.station_bikes) + self.riding
        expected = params.n_stations * params.capacity_c
        if total != expected:
            raise InvariantViolationError(
                f"bike conservation broken: {total} != {expected}"
            )
        if any(not 1 <= w.walks_remaining <= params.omega for w in self.walkers):
            raise InvariantViolationError("walker budget out of [1, omega]")


@dataclass(frozen=True)
class SimReport:
    """Measurement results of one run.

    time_avg_measure  time-averaged occupancy fractions over the window
    trajectory        empirical-measure snapshots from t = 0 (or None)
    joint_counts      time-weighted joint occupancy of stations 0 and 1
    event_counts      event totals (arrivals, rentals, abandonments,
                      walk_starts, re_rides, returns, ...)
    measured_time     length of the measurement window
    final_state       microscopic state at the end of the run
    config            the run description that produced this report
    """

    time_avg_measure: np.ndarray
    trajectory: Trajectory | None
    joint_counts: np.ndarray
    event_counts: dict
    measured_time: float
    final_state: SimState
    config: SimConfig

    def to_dict(self) -> dict:
        return {
            "params": self.config.params.to_dict(),
            "seed": self.config.seed,
            "t_warmup": self.config.t_warmup,
            "t_measure": self.config.t_measure,
            "measured_time": self.measured_time,
            "event_counts": dict(self.event_counts),
            "time_avg_measure": [float(v) for v in self.time_avg_measure],
        }

    def to_json(self, path) -> None:
        _write_json(path, self.to_dict())


def simulate(config: SimConfig) -> SimReport:
    """Run the event-driven chain and return its measurement report.

    Rentals and returns are instantaneous state changes at arrival instants:
    an arriving customer rents immediately where a bike is available, starts
    walking (budget omega) where none is, or abandons if omega = 0; a walk
    completing at an empty station spends one unit of budget; a ride
    completing at a full station turns into another ride toward one of the
    other stations.  Bike conservation is asserted at every event.  A capacity
    whose dense (K+1) x (K+1) joint occupancy matrix cannot be allocated, a
    station count whose list of bike counts cannot, or a sample interval whose
    trajectory samples cannot, raises ``ConfigError`` before anything is
    allocated.  Samples are written straight into the block the trajectory returns.
    """
    p = config.params
    samples = 0
    if config.sample_interval is not None:
        # the samples at the rounded times i * sample_interval up to the horizon:
        # at most floor(horizon / sample_interval) + 2, the quotient taken exactly
        (a, b), (c, d) = ((config.t_warmup + config.t_measure).as_integer_ratio(),
                          config.sample_interval.as_integer_ratio())
        samples = a * d // (b * c) + 2
    station_bytes = 8 if p.capacity_k <= 256 else 36  # CPython caches the ints up to 256
    error = (_capacity_error(p.capacity_k, 8 * (p.capacity_k + 1) ** 2, "simulate",
                             "the dense (K+1) x (K+1) joint occupancy matrix needs "
                             "8 (K+1)**2 bytes")
             or _capacity_error(p.n_stations, station_bytes * p.n_stations, "simulate",
                                f"the bike counts per station need {station_bytes} N bytes",
                                key="n_stations")
             or _capacity_error(samples, 8 * (p.capacity_k + 2) * samples, "simulate",
                                "the trajectory samples need 8 (K+2) bytes each",
                                key="samples"))
    if error is not None:
        raise error
    n = p.n_stations
    cap_k = p.capacity_k
    cap_c = p.capacity_c
    omega = p.omega
    gamma = p.gamma
    mu = p.mu
    arrival_rate = n * p.lam

    # the seed contract of the module docstring: each stream's draws sit in a
    # list (te and tu walked together; au, wu, ru by index) refilled at the
    # block end, and the draws of a stream's earlier blocks are counted apart
    block = _BLOCK
    g_time, g_arr, g_walk, g_ride = (np.random.Generator(np.random.PCG64(ss))
                                     for ss in np.random.SeedSequence(config.seed).spawn(4))
    tu = g_time.random(block).tolist()
    te = g_time.standard_exponential(block).tolist()
    # the other three streams draw their exponential block and never read it
    au = _stations(g_arr.random(block), n)
    g_arr.standard_exponential(block)
    wu = g_walk.random(block).tolist()
    g_walk.standard_exponential(block)
    ru = g_ride.random(block).tolist()
    g_ride.standard_exponential(block)
    iau = iwu = iru = 0
    timed = arrived = walked = rode = 0

    bikes = [cap_c] * n
    counts = [0] * (cap_k + 1)
    counts[cap_c] = n
    parked = n * cap_c
    total_bikes = n * cap_c

    walker_station: list[int] = []
    walker_left: list[int] = []
    # per riding bike, the full station it bounced off last, or -1 for a new ride
    ride_excl: list[int] = []
    n_walk = n_ride = 0

    w0 = config.t_warmup
    horizon = config.t_warmup + config.t_measure
    acc = [0.0] * (cap_k + 1)
    # a level's (or the joint cell's) time counts from its mark: w0, then only forward
    mark = [w0] * (cap_k + 1)
    joint = np.zeros((cap_k + 1, cap_k + 1))
    j0 = j1 = cap_c
    jmark = w0

    sampling = config.sample_interval is not None
    dt_s = config.sample_interval if sampling else 0.0
    sample_index = 0
    rows = np.empty((samples, cap_k + 2))  # per sample (t, count_0, ..., count_K)

    # the totals that the stream indices do not give
    rentals = abandonments = walk_starts = re_rides = walk_rentals = 0

    t = 0.0
    arrival_walk = arrival_rate + gamma * n_walk  # recomputed wherever n_walk changes
    while True:
        for e, u in zip(te, tu):
            # conservation in the last event's state at its time (at t = 0, the initial
            # state): once per event, before the next timing draw
            if parked + len(ride_excl) != total_bikes:
                raise _unconserved(t, parked, len(ride_excl), total_bikes)
            total_rate = arrival_walk + mu * n_ride
            t += e / total_rate
            if sampling:
                # the state is constant up to t; on the final segment the
                # sample at exactly the horizon belongs to the current state too
                stop = t if t < horizon else horizon * (1.0 + 1e-15)
                s = sample_index * dt_s
                while s < stop:
                    rows[sample_index] = (s, *counts)
                    sample_index += 1
                    s = sample_index * dt_s
            if t >= horizon:
                break

            # an event that changes station d's level from k to k_new falls
            # through to the flush below; every other event ends in its branch
            u *= total_rate
            if u < arrival_walk:
                if u < arrival_rate:
                    # outside arrival at a uniformly random station
                    if iau == block:
                        au = _stations(g_arr.random(block), n)
                        arrived += block
                        iau = 0
                    d = au[iau]
                    iau += 1
                    k = bikes[d]
                    if k == 0:
                        if omega > 0:
                            walker_station.append(d)
                            walker_left.append(omega)
                            n_walk += 1
                            arrival_walk = arrival_rate + gamma * n_walk
                            walk_starts += 1
                        else:
                            abandonments += 1
                        continue
                else:
                    # one walker finishes a walk toward a uniformly random other station
                    if iwu == block:
                        wu = g_walk.random(block).tolist()
                        walked += block
                        iwu = 0
                    j = int(wu[iwu] * n_walk)
                    m = int(wu[iwu + 1] * (n - 1))
                    iwu += 2
                    origin = walker_station[j]
                    d = m + 1 if m >= origin else m
                    k = bikes[d]
                    if k == 0 and walker_left[j] > 1:
                        # no bike: the walker walks on with one walk fewer
                        walker_left[j] -= 1
                        walker_station[j] = d
                        continue
                    # the walker rents or gives up: swap-remove record j
                    n_walk -= 1
                    arrival_walk = arrival_rate + gamma * n_walk
                    if j != n_walk:
                        walker_station[j] = walker_station[n_walk]
                        walker_left[j] = walker_left[n_walk]
                    walker_station.pop()
                    walker_left.pop()
                    if k == 0:
                        abandonments += 1
                        continue
                    walk_rentals += 1
                # the customer at station d rents one of its k bikes
                bikes[d] = k_new = k - 1
                parked -= 1
                ride_excl.append(-1)
                n_ride += 1
                rentals += 1
            else:
                # one riding bike reaches its destination
                if iru == block:
                    ru = g_ride.random(block).tolist()
                    rode += block
                    iru = 0
                j = int(ru[iru] * n_ride)
                avoid = ride_excl[j]
                if avoid < 0:
                    d = int(ru[iru + 1] * n)
                else:
                    m = int(ru[iru + 1] * (n - 1))
                    d = m + 1 if m >= avoid else m
                iru += 2
                k = bikes[d]
                if k == cap_k:
                    # full station: persistent customer rides on, avoiding it
                    re_rides += 1
                    ride_excl[j] = d
                    continue
                bikes[d] = k_new = k + 1
                parked += 1
                n_ride -= 1
                if j != n_ride:
                    ride_excl[j] = ride_excl[n_ride]
                ride_excl.pop()

            # flush the time spent at both levels and at the joint cell
            m = mark[k]
            if t > m:
                acc[k] += counts[k] * (t - m)
                mark[k] = t
            m = mark[k_new]
            if t > m:
                acc[k_new] += counts[k_new] * (t - m)
                mark[k_new] = t
            counts[k] -= 1
            counts[k_new] += 1
            if d < 2:
                if t > jmark:
                    joint[j0, j1] += t - jmark
                    jmark = t
                if d == 0:
                    j0 = k_new
                else:
                    j1 = k_new
        else:
            # every event of the timing block happened: refill it, and every
            # 2**16 events run the deep check
            te = g_time.standard_exponential(block).tolist()
            tu = g_time.random(block).tolist()
            timed += block
            if timed & _DEEP_CHECK_MASK == 0:
                _deep_check(bikes, counts, parked, walker_left, omega, cap_k, n)
            continue
        break

    for k in range(cap_k + 1):
        if horizon > mark[k]:
            acc[k] += counts[k] * (horizon - mark[k])
    if horizon > jmark:
        joint[j0, j1] += horizon - jmark

    _deep_check(bikes, counts, parked, walker_left, omega, cap_k, n)
    final_state = SimState(
        station_bikes=bikes,
        walkers=[Walker(s, w) for s, w in zip(walker_station, walker_left)],
        riding=len(ride_excl),
        clock=horizon,
    )
    final_state.validate(p)

    # c / n bit for bit: both are one correctly rounded division of integers below 2**53
    rows = rows[:sample_index]
    np.divide(rows[:, 1:], n, rows[:, 1:])
    trajectory = Trajectory(rows[:, 0], rows[:, 1:]) if sampling else None
    # each arrival draws one uniform, each walk or ride completion two
    arrivals = arrived + iau
    walks_completed = (walked + iwu) // 2
    rides_completed = (rode + iru) // 2
    event_counts = {
        "arrivals": arrivals,
        "rentals": rentals,
        "abandonments": abandonments,
        "walk_starts": walk_starts,
        "re_rides": re_rides,
        "returns": rides_completed - re_rides,
        "walks_completed": walks_completed,
        "walk_rentals": walk_rentals,
        "walkers_in_flight": len(walker_left),
        "events": arrivals + walks_completed + rides_completed,
    }
    return SimReport(
        time_avg_measure=np.array(acc) / (config.t_measure * n),
        trajectory=trajectory,
        joint_counts=joint,
        event_counts=event_counts,
        measured_time=config.t_measure,
        final_state=final_state,
        config=config,
    )


def _stations(u: np.ndarray, n: int) -> list[int]:
    """The arrival stations ``int(v * n)`` of a block of uniforms ``u``, bit for bit."""
    return (u * n).astype(np.intp).tolist()


def _unconserved(t, parked, riding, total_bikes) -> InvariantViolationError:
    return InvariantViolationError(f"bike conservation broken at t={t:.6g}: "
                                   f"{parked} parked + {riding} riding != {total_bikes}")


def _deep_check(bikes, counts, parked, walker_left, omega, cap_k, n) -> None:
    if sum(counts) != n:
        raise InvariantViolationError("occupancy histogram lost a station")
    if sum(k * c for k, c in enumerate(counts)) != parked:
        raise InvariantViolationError("occupancy histogram disagrees with parked total")
    if min(bikes) < 0 or max(bikes) > cap_k:
        raise InvariantViolationError("station bike count out of [0, K]")
    if sum(bikes) != parked:
        raise InvariantViolationError("per-station counts disagree with parked total")
    if walker_left and (min(walker_left) < 1 or max(walker_left) > omega):
        raise InvariantViolationError("walker budget out of [1, omega]")


def independence_statistic(report: SimReport) -> float:
    """Largest gap between the joint occupancy of two stations and the
    product of its marginals.

    Small values back the claim that distinct stations decouple as N grows.
    """
    total = float(report.joint_counts.sum())
    if total <= 0.0:
        raise EmptyMeasurementError("no joint occupancy was measured")
    joint = report.joint_counts / total
    m0 = joint.sum(axis=1)
    m1 = joint.sum(axis=0)
    return float(np.max(np.abs(joint - np.outer(m0, m1))))


def empirical_vs_ode(config: SimConfig) -> float:
    """Sup-over-time gap between the simulated empirical measure and the
    limiting ODE started from the same all-stations-at-C initial condition.

    Requires trajectory sampling; the gap is the max over sample times of
    the sup-norm distance, and is deterministic given the seed.
    """
    if config.sample_interval is None:
        raise ConfigError("empirical_vs_ode needs sample_interval set")
    report = simulate(config)
    horizon = config.t_warmup + config.t_measure
    ode = integrate(OdeConfig(initial=_all_at_c(config.params), t_end=horizon), config.params)
    sim_traj = report.trajectory
    ode_states = ode.at(sim_traj.times)
    return float(np.max(np.abs(sim_traj.states - ode_states)))
